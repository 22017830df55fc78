#include "src/table/table_io.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

namespace gent {

namespace {

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

void AppendField(std::string_view field, std::string* out) {
  if (!NeedsQuoting(field)) {
    *out += field;
    return;
  }
  *out += '"';
  for (char c : field) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

// Splits CSV text into records of fields, handling quoted fields.
Result<std::vector<std::vector<std::string>>> ParseRecords(
    const std::string& text) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool any_field = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        any_field = true;
        break;
      case ',':
        record.push_back(std::move(field));
        field.clear();
        any_field = true;
        break;
      case '\r':
        // CRLF: the '\n' that follows ends the record. A bare CR
        // (CR-only line endings, old Mac exports) ends it here —
        // dropping it instead would silently glue two records' fields
        // together. CRs *inside* values survive round-trips because the
        // writer always quotes them (NeedsQuoting) and the quoted
        // branch above preserves them verbatim.
        if (i + 1 < text.size() && text[i + 1] == '\n') break;
        [[fallthrough]];
      case '\n':
        if (any_field || !field.empty() || !record.empty()) {
          record.push_back(std::move(field));
          field.clear();
          records.push_back(std::move(record));
          record.clear();
          any_field = false;
        }
        break;
      default:
        field += c;
        any_field = true;
    }
  }
  if (in_quotes) return Status::InvalidArgument("unterminated quoted field");
  if (any_field || !field.empty() || !record.empty()) {
    record.push_back(std::move(field));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for write: " + path);
  std::string buf;
  for (size_t c = 0; c < table.num_cols(); ++c) {
    if (c > 0) buf += ',';
    AppendField(table.column_name(c), &buf);
  }
  buf += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    // A single-column null row would serialize as a blank line, which
    // every CSV parser (including ours) skips; write it as "" instead.
    if (table.num_cols() == 1 && table.CellString(r, 0).empty()) {
      buf += "\"\"\n";
      continue;
    }
    for (size_t c = 0; c < table.num_cols(); ++c) {
      if (c > 0) buf += ',';
      AppendField(table.CellString(r, c), &buf);
    }
    buf += '\n';
    if (buf.size() > (1u << 20)) {
      out << buf;
      buf.clear();
    }
  }
  out << buf;
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Table> ParseCsvText(DictionaryPtr dict, const std::string& name,
                           const std::string& text) {
  GENT_ASSIGN_OR_RETURN(auto records, ParseRecords(text));
  if (records.empty()) {
    return Status::InvalidArgument("empty CSV: " + name);
  }
  Table table(name, dict);
  for (const auto& col : records[0]) {
    GENT_RETURN_IF_ERROR(table.AddColumn(col));
  }
  const size_t ncols = table.num_cols();
  std::vector<ValueId> row(ncols);
  for (size_t i = 1; i < records.size(); ++i) {
    const auto& rec = records[i];
    if (rec.size() != ncols) {
      return Status::InvalidArgument(
          name + ": row " + std::to_string(i) + " has " +
          std::to_string(rec.size()) + " fields, expected " +
          std::to_string(ncols));
    }
    for (size_t c = 0; c < ncols; ++c) row[c] = dict->Intern(rec[c]);
    table.AddRow(row);
  }
  return table;
}

Result<Table> ReadCsv(DictionaryPtr dict, const std::string& name,
                      const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ParseCsvText(std::move(dict), name, ss.str());
}

Status WriteTableDirectory(const std::vector<Table>& tables,
                           const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("mkdir failed: " + dir);
  for (const auto& t : tables) {
    GENT_RETURN_IF_ERROR(WriteCsv(t, dir + "/" + t.name() + ".csv"));
  }
  return Status::OK();
}

Result<std::vector<Table>> ReadTableDirectory(DictionaryPtr dict,
                                              const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return Status::IOError("cannot list: " + dir);
  std::vector<Table> tables;
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    const auto& path = entry.path();
    if (path.extension() != ".csv") continue;
    GENT_ASSIGN_OR_RETURN(
        auto table, ReadCsv(dict, path.stem().string(), path.string()));
    tables.push_back(std::move(table));
  }
  return tables;
}

}  // namespace gent
