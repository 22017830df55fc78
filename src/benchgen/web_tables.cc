#include "src/benchgen/web_tables.h"

#include <algorithm>
#include <unordered_set>

namespace gent {

namespace {

// Pseudo-name synthesis: pronounceable, collision-poor entity names.
std::string SynthName(Rng& rng) {
  static const char* kOnsets[] = {"b",  "br", "d",  "dr", "f", "g",  "k",
                                  "kl", "l",  "m",  "n",  "p", "pr", "r",
                                  "s",  "st", "t",  "tr", "v", "z"};
  static const char* kNuclei[] = {"a", "e", "i", "o", "u", "ai", "ei", "ou"};
  static const char* kCodas[] = {"",  "l", "n",  "r", "s",
                                 "t", "x", "nd", "rk"};
  std::string out;
  size_t syllables = 2 + rng.Index(2);
  for (size_t i = 0; i < syllables; ++i) {
    out += kOnsets[rng.Index(std::size(kOnsets))];
    out += kNuclei[rng.Index(std::size(kNuclei))];
    out += kCodas[rng.Index(std::size(kCodas))];
  }
  out[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(out[0])));
  return out;
}

// One attribute of an entity domain.
struct Attribute {
  std::string name;
  enum Kind { kCategorical, kNumeric, kNameLike } kind;
  std::vector<std::string> categories;  // for kCategorical
};

// An entity domain: a universe of entities with generated attributes.
struct Domain {
  std::string key_name;
  std::vector<Attribute> attributes;
  // universe[e][a]: value of attribute a for entity e (index 0 = key).
  std::vector<std::vector<std::string>> universe;
};

Domain MakeDomain(const std::string& key_name,
                  std::vector<Attribute> attributes, size_t num_entities,
                  Rng& rng) {
  Domain d;
  d.key_name = key_name;
  d.attributes = std::move(attributes);
  std::unordered_set<std::string> used;
  for (size_t e = 0; e < num_entities; ++e) {
    std::vector<std::string> row;
    std::string key;
    do {
      key = SynthName(rng);
    } while (!used.insert(key).second);
    row.push_back(key);
    for (const auto& attr : d.attributes) {
      switch (attr.kind) {
        case Attribute::kCategorical:
          row.push_back(attr.categories[rng.Index(attr.categories.size())]);
          break;
        case Attribute::kNumeric:
          row.push_back(std::to_string(rng.Uniform(1, 2000000)));
          break;
        case Attribute::kNameLike:
          row.push_back(SynthName(rng));
          break;
      }
    }
    d.universe.push_back(std::move(row));
  }
  return d;
}

std::vector<Domain> MakeDomains(Rng& rng) {
  std::vector<Domain> out;
  out.push_back(MakeDomain(
      "country",
      {{"capital", Attribute::kNameLike, {}},
       {"continent",
        Attribute::kCategorical,
        {"Africa", "Asia", "Europe", "Americas", "Oceania"}},
       {"population", Attribute::kNumeric, {}},
       {"currency", Attribute::kNameLike, {}}},
      400, rng));
  out.push_back(MakeDomain(
      "film",
      {{"director", Attribute::kNameLike, {}},
       {"genre",
        Attribute::kCategorical,
        {"Drama", "Comedy", "Action", "Documentary", "Horror"}},
       {"year", Attribute::kNumeric, {}},
       {"studio", Attribute::kNameLike, {}}},
      600, rng));
  out.push_back(MakeDomain(
      "company",
      {{"headquarters", Attribute::kNameLike, {}},
       {"industry",
        Attribute::kCategorical,
        {"Tech", "Finance", "Retail", "Energy", "Health"}},
       {"revenue", Attribute::kNumeric, {}},
       {"ceo", Attribute::kNameLike, {}}},
      500, rng));
  out.push_back(MakeDomain(
      "athlete",
      {{"sport",
        Attribute::kCategorical,
        {"Football", "Tennis", "Basketball", "Athletics", "Swimming"}},
       {"team", Attribute::kNameLike, {}},
       {"medals", Attribute::kNumeric, {}}},
      500, rng));
  out.push_back(MakeDomain(
      "book",
      {{"author", Attribute::kNameLike, {}},
       {"publisher", Attribute::kNameLike, {}},
       {"pages", Attribute::kNumeric, {}}},
      500, rng));
  return out;
}

// Samples a table from a domain: `rows` random entities, the key column
// plus a random subset of attributes.
Table SampleTable(const DictionaryPtr& dict, const Domain& domain,
                  const std::string& name, size_t rows, Rng& rng) {
  Table t(name, dict);
  (void)t.AddColumn(domain.key_name);
  std::vector<size_t> attrs(domain.attributes.size());
  for (size_t i = 0; i < attrs.size(); ++i) attrs[i] = i;
  rng.Shuffle(&attrs);
  size_t keep = 1 + rng.Index(domain.attributes.size());
  attrs.resize(keep);
  std::sort(attrs.begin(), attrs.end());
  for (size_t a : attrs) (void)t.AddColumn(domain.attributes[a].name);

  auto entities = rng.SampleIndices(domain.universe.size(),
                                    std::min(rows, domain.universe.size()));
  for (size_t e : entities) {
    std::vector<ValueId> row;
    row.push_back(dict->Intern(domain.universe[e][0]));
    for (size_t a : attrs) {
      row.push_back(dict->Intern(domain.universe[e][a + 1]));
    }
    t.AddRow(row);
  }
  (void)t.SetKeyColumns({0});
  return t;
}

}  // namespace

WebCorpus GenerateWebCorpus(const DictionaryPtr& dict,
                            const WebCorpusConfig& config) {
  Rng rng(config.seed);
  auto domains = MakeDomains(rng);
  WebCorpus corpus;
  size_t made = 0;
  auto rows_for = [&](Rng& r) {
    return config.min_rows + r.Index(config.max_rows - config.min_rows + 1);
  };

  // Partitioned groups: a base table plus a 2×3 or 2×2 grid of row/column
  // partitions (5-6 tables including overlap padding), every partition
  // carrying the key column.
  for (size_t g = 0; g < config.partitioned_groups; ++g) {
    const Domain& domain = domains[g % domains.size()];
    std::string base_name = "t2d_base_" + std::to_string(g);
    Table base = SampleTable(dict, domain, base_name, rows_for(rng), rng);
    // The base must have at least 3 columns to partition meaningfully.
    while (base.num_cols() < 4) {
      base = SampleTable(dict, domain, base_name, rows_for(rng), rng);
    }
    corpus.partitioned_bases.push_back(base_name);

    // Column groups: split non-key columns into two groups.
    std::vector<std::string> cols_a{base.column_name(0)};
    std::vector<std::string> cols_b{base.column_name(0)};
    for (size_t c = 1; c < base.num_cols(); ++c) {
      (c % 2 == 1 ? cols_a : cols_b).push_back(base.column_name(c));
    }
    // Row halves (with one overlapping row to exercise dedup).
    size_t half = base.num_rows() / 2;
    size_t part_id = 0;
    for (const auto& cols : {cols_a, cols_b}) {
      for (int half_idx = 0; half_idx < 2; ++half_idx) {
        Table part("t2d_part_" + std::to_string(g) + "_" +
                       std::to_string(part_id++),
                   dict);
        for (const auto& cn : cols) (void)part.AddColumn(cn);
        size_t lo = half_idx == 0 ? 0 : (half > 0 ? half - 1 : 0);
        size_t hi = half_idx == 0 ? half : base.num_rows();
        for (size_t r = lo; r < hi; ++r) {
          std::vector<ValueId> row;
          for (const auto& cn : cols) {
            row.push_back(base.cell(r, *base.ColumnIndex(cn)));
          }
          part.AddRow(row);
        }
        (void)part.SetKeyColumns({0});  // partitions keep the entity key
        corpus.tables.push_back(std::move(part));
        ++made;
      }
    }
    corpus.tables.push_back(std::move(base));
    ++made;
  }

  // Duplicate clusters: identical pairs.
  for (size_t dcl = 0; dcl < config.duplicate_clusters; ++dcl) {
    const Domain& domain = domains[(dcl + 1) % domains.size()];
    std::string name = "t2d_dup_" + std::to_string(dcl) + "a";
    Table original = SampleTable(dict, domain, name, rows_for(rng), rng);
    Table copy = original.Clone();
    copy.set_name("t2d_dup_" + std::to_string(dcl) + "b");
    corpus.duplicate_tables.push_back(original.name());
    corpus.duplicate_tables.push_back(copy.name());
    corpus.tables.push_back(std::move(original));
    corpus.tables.push_back(std::move(copy));
    made += 2;
  }

  // Singleton tail.
  size_t serial = 0;
  while (made < config.num_tables) {
    const Domain& domain = domains[rng.Index(domains.size())];
    corpus.tables.push_back(SampleTable(
        dict, domain, "t2d_web_" + std::to_string(serial++), rows_for(rng),
        rng));
    ++made;
  }
  return corpus;
}

std::vector<Table> GenerateWdcSample(const DictionaryPtr& dict,
                                     const WdcConfig& config) {
  Rng rng(config.seed);
  auto domains = MakeDomains(rng);
  std::vector<Table> tables;
  tables.reserve(config.num_tables);
  for (size_t i = 0; i < config.num_tables; ++i) {
    const Domain& domain = domains[rng.Index(domains.size())];
    size_t rows =
        config.min_rows + rng.Index(config.max_rows - config.min_rows + 1);
    tables.push_back(
        SampleTable(dict, domain, "wdc_" + std::to_string(i), rows, rng));
    (void)tables.back().SetKeyColumns({});  // lake tables carry no keys
  }
  return tables;
}

}  // namespace gent
