#include "src/benchgen/tpch.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_set>

namespace gent {

namespace {

// Word pools for text-shaped columns.
const char* kRegionNames[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                              "MIDDLE EAST"};
const char* kNationNames[] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA",
    "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                           "MACHINERY", "HOUSEHOLD"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kShipModes[] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                            "TRUCK",   "MAIL", "FOB"};
const char* kShipInstr[] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                            "TAKE BACK RETURN"};
const char* kContainers[] = {"SM CASE", "SM BOX", "LG CASE", "LG BOX",
                             "MED BAG", "JUMBO JAR", "WRAP PKG"};
const char* kBrandAdjectives[] = {"almond", "antique", "aquamarine", "azure",
                                  "beige", "bisque", "blanched", "blush",
                                  "burlywood", "chartreuse"};
const char* kTypes[] = {"STANDARD ANODIZED TIN",  "SMALL PLATED COPPER",
                        "MEDIUM POLISHED STEEL",  "ECONOMY BURNISHED NICKEL",
                        "PROMO BRUSHED BRASS",    "LARGE ANODIZED STEEL",
                        "STANDARD POLISHED BRASS"};
const char* kCommentWords[] = {"carefully", "quickly",  "furiously", "slyly",
                               "blithely",  "deposits", "requests",  "accounts",
                               "packages",  "theodolites", "pinto", "beans",
                               "foxes",     "ideas",    "platelets", "asymptotes"};

template <size_t N>
std::string Pick(Rng& rng, const char* const (&pool)[N]) {
  return pool[rng.Index(N)];
}

std::string Comment(Rng& rng) {
  std::string out;
  size_t words = 2 + rng.Index(4);
  for (size_t i = 0; i < words; ++i) {
    if (i > 0) out += ' ';
    out += Pick(rng, kCommentWords);
  }
  return out;
}

std::string Money(Rng& rng, int64_t lo_cents, int64_t hi_cents) {
  int64_t cents = rng.Uniform(lo_cents, hi_cents);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%lld.%02lld", cents < 0 ? "-" : "",
                static_cast<long long>(std::llabs(cents) / 100),
                static_cast<long long>(std::llabs(cents) % 100));
  return buf;
}

std::string Date(Rng& rng) {
  int year = static_cast<int>(rng.Uniform(1992, 1998));
  int month = static_cast<int>(rng.Uniform(1, 12));
  int day = static_cast<int>(rng.Uniform(1, 28));
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", year, month, day);
  return buf;
}

std::string Phone(Rng& rng, size_t nationkey) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%02zu-%03lld-%03lld-%04lld",
                10 + nationkey, static_cast<long long>(rng.Uniform(100, 999)),
                static_cast<long long>(rng.Uniform(100, 999)),
                static_cast<long long>(rng.Uniform(1000, 9999)));
  return buf;
}

size_t Scaled(double scale, size_t base) {
  size_t n = static_cast<size_t>(static_cast<double>(base) * scale + 0.5);
  return n == 0 ? 1 : n;
}

}  // namespace

std::vector<std::string> TpchKeyColumns(const std::string& table_name) {
  if (table_name == "region") return {"r_regionkey"};
  if (table_name == "nation") return {"n_nationkey"};
  if (table_name == "supplier") return {"s_suppkey"};
  if (table_name == "part") return {"p_partkey"};
  if (table_name == "partsupp") return {"ps_partkey", "ps_suppkey"};
  if (table_name == "customer") return {"c_custkey"};
  if (table_name == "orders") return {"o_orderkey"};
  if (table_name == "lineitem") return {"l_orderkey", "l_linenumber"};
  return {};
}

std::vector<Table> GenerateTpch(const DictionaryPtr& dict,
                                const TpchConfig& config) {
  Rng rng(config.seed);
  const double s = config.scale;
  std::vector<Table> tables;

  // Base cardinalities: at scale 1 the eight tables average ~780 rows
  // (matching TP-TR Small's reported average).
  const size_t n_supplier = Scaled(s, 200);
  const size_t n_part = Scaled(s, 500);
  const size_t n_partsupp = Scaled(s, 1000);
  const size_t n_customer = Scaled(s, 400);
  const size_t n_orders = Scaled(s, 1500);
  const size_t n_lineitem = Scaled(s, 2500);

  // --- region -------------------------------------------------------------
  {
    Table t("region", dict);
    for (const auto* c : {"r_regionkey", "r_name", "r_comment"}) {
      (void)t.AddColumn(c);
    }
    for (size_t i = 0; i < 5; ++i) {
      t.AddRow({dict->Intern(std::to_string(i)),
                dict->Intern(kRegionNames[i]), dict->Intern(Comment(rng))});
    }
    tables.push_back(std::move(t));
  }

  // --- nation -------------------------------------------------------------
  {
    Table t("nation", dict);
    for (const auto* c :
         {"n_nationkey", "n_name", "n_regionkey", "n_comment"}) {
      (void)t.AddColumn(c);
    }
    for (size_t i = 0; i < 25; ++i) {
      t.AddRow({dict->Intern(std::to_string(i)),
                dict->Intern(kNationNames[i]),
                dict->Intern(std::to_string(i % 5)),
                dict->Intern(Comment(rng))});
    }
    tables.push_back(std::move(t));
  }

  // --- supplier -------------------------------------------------------------
  {
    Table t("supplier", dict);
    for (const auto* c : {"s_suppkey", "s_name", "s_address", "s_nationkey",
                          "s_phone", "s_acctbal", "s_comment"}) {
      (void)t.AddColumn(c);
    }
    for (size_t i = 1; i <= n_supplier; ++i) {
      size_t nation = rng.Index(25);
      char name[32];
      std::snprintf(name, sizeof(name), "Supplier#%09zu", i);
      t.AddRow({dict->Intern(std::to_string(i)), dict->Intern(name),
                dict->Intern(rng.AlphaNum(12)),
                dict->Intern(std::to_string(nation)),
                dict->Intern(Phone(rng, nation)),
                dict->Intern(Money(rng, -99999, 999999)),
                dict->Intern(Comment(rng))});
    }
    tables.push_back(std::move(t));
  }

  // --- part ----------------------------------------------------------------
  {
    Table t("part", dict);
    for (const auto* c :
         {"p_partkey", "p_name", "p_mfgr", "p_brand", "p_type", "p_size",
          "p_container", "p_retailprice", "p_comment"}) {
      (void)t.AddColumn(c);
    }
    for (size_t i = 1; i <= n_part; ++i) {
      std::string pname = Pick(rng, kBrandAdjectives);
      pname += ' ';
      pname += Pick(rng, kBrandAdjectives);
      pname += ' ';
      pname += std::to_string(i);
      int mfgr = static_cast<int>(rng.Uniform(1, 5));
      char mfgr_s[24], brand_s[24];
      std::snprintf(mfgr_s, sizeof(mfgr_s), "Manufacturer#%d", mfgr);
      std::snprintf(brand_s, sizeof(brand_s), "Brand#%d%lld", mfgr,
                    static_cast<long long>(rng.Uniform(1, 5)));
      t.AddRow({dict->Intern(std::to_string(i)), dict->Intern(pname),
                dict->Intern(mfgr_s), dict->Intern(brand_s),
                dict->Intern(Pick(rng, kTypes)),
                dict->Intern(std::to_string(rng.Uniform(1, 50))),
                dict->Intern(Pick(rng, kContainers)),
                dict->Intern(Money(rng, 90000, 200000)),
                dict->Intern(Comment(rng))});
    }
    tables.push_back(std::move(t));
  }

  // --- partsupp ---------------------------------------------------------------
  {
    Table t("partsupp", dict);
    for (const auto* c : {"ps_partkey", "ps_suppkey", "ps_availqty",
                          "ps_supplycost", "ps_comment"}) {
      (void)t.AddColumn(c);
    }
    // Distinct (part, supplier) pairs.
    std::unordered_set<uint64_t> seen;
    size_t made = 0;
    while (made < n_partsupp) {
      uint64_t part = static_cast<uint64_t>(rng.Uniform(1, static_cast<int64_t>(n_part)));
      uint64_t supp = static_cast<uint64_t>(rng.Uniform(1, static_cast<int64_t>(n_supplier)));
      if (!seen.insert((part << 32) | supp).second) continue;
      t.AddRow({dict->Intern(std::to_string(part)),
                dict->Intern(std::to_string(supp)),
                dict->Intern(std::to_string(rng.Uniform(1, 9999))),
                dict->Intern(Money(rng, 100, 100000)),
                dict->Intern(Comment(rng))});
      ++made;
    }
    tables.push_back(std::move(t));
  }

  // --- customer ---------------------------------------------------------------
  {
    Table t("customer", dict);
    for (const auto* c :
         {"c_custkey", "c_name", "c_address", "c_nationkey", "c_phone",
          "c_acctbal", "c_mktsegment", "c_comment"}) {
      (void)t.AddColumn(c);
    }
    for (size_t i = 1; i <= n_customer; ++i) {
      size_t nation = rng.Index(25);
      char name[32];
      std::snprintf(name, sizeof(name), "Customer#%09zu", i);
      t.AddRow({dict->Intern(std::to_string(i)), dict->Intern(name),
                dict->Intern(rng.AlphaNum(14)),
                dict->Intern(std::to_string(nation)),
                dict->Intern(Phone(rng, nation)),
                dict->Intern(Money(rng, -99999, 999999)),
                dict->Intern(Pick(rng, kSegments)),
                dict->Intern(Comment(rng))});
    }
    tables.push_back(std::move(t));
  }

  // --- orders ------------------------------------------------------------------
  std::vector<size_t> order_keys;
  {
    Table t("orders", dict);
    for (const auto* c : {"o_orderkey", "o_custkey", "o_orderstatus",
                          "o_totalprice", "o_orderdate", "o_orderpriority",
                          "o_clerk", "o_shippriority", "o_comment"}) {
      (void)t.AddColumn(c);
    }
    for (size_t i = 1; i <= n_orders; ++i) {
      order_keys.push_back(i);
      char clerk[24];
      std::snprintf(clerk, sizeof(clerk), "Clerk#%09lld",
                    static_cast<long long>(rng.Uniform(1, 1000)));
      const char* status = rng.Bernoulli(0.5)   ? "O"
                           : rng.Bernoulli(0.5) ? "F"
                                                : "P";
      t.AddRow({dict->Intern(std::to_string(i)),
                dict->Intern(std::to_string(
                    rng.Uniform(1, static_cast<int64_t>(n_customer)))),
                dict->Intern(status), dict->Intern(Money(rng, 100000, 5000000)),
                dict->Intern(Date(rng)), dict->Intern(Pick(rng, kPriorities)),
                dict->Intern(clerk), dict->Intern("0"),
                dict->Intern(Comment(rng))});
    }
    tables.push_back(std::move(t));
  }

  // --- lineitem -------------------------------------------------------------------
  {
    Table t("lineitem", dict);
    for (const auto* c :
         {"l_orderkey", "l_linenumber", "l_partkey", "l_suppkey",
          "l_quantity", "l_extendedprice", "l_discount", "l_tax",
          "l_returnflag", "l_linestatus", "l_shipdate", "l_shipinstruct",
          "l_shipmode", "l_comment"}) {
      (void)t.AddColumn(c);
    }
    size_t made = 0;
    size_t order_idx = 0;
    std::vector<size_t> lines_per_order(n_orders, 0);
    while (made < n_lineitem) {
      size_t order = order_keys[order_idx % n_orders];
      size_t line = ++lines_per_order[order - 1];
      const char* rf = rng.Bernoulli(0.5)   ? "N"
                       : rng.Bernoulli(0.5) ? "R"
                                            : "A";
      t.AddRow({dict->Intern(std::to_string(order)),
                dict->Intern(std::to_string(line)),
                dict->Intern(std::to_string(
                    rng.Uniform(1, static_cast<int64_t>(n_part)))),
                dict->Intern(std::to_string(
                    rng.Uniform(1, static_cast<int64_t>(n_supplier)))),
                dict->Intern(std::to_string(rng.Uniform(1, 50))),
                dict->Intern(Money(rng, 100000, 9000000)),
                dict->Intern("0.0" + std::to_string(rng.Uniform(1, 9))),
                dict->Intern("0.0" + std::to_string(rng.Uniform(1, 8))),
                dict->Intern(rf),
                dict->Intern(rng.Bernoulli(0.5) ? "O" : "F"),
                dict->Intern(Date(rng)), dict->Intern(Pick(rng, kShipInstr)),
                dict->Intern(Pick(rng, kShipModes)),
                dict->Intern(Comment(rng))});
      ++made;
      // ~40% chance to move to the next order, yielding 1-7 lines/order.
      if (rng.Bernoulli(0.4)) ++order_idx;
    }
    tables.push_back(std::move(t));
  }

  // Declare keys on the generated tables (the reclamation benchmarks strip
  // them from lake variants; sources built from these originals keep them).
  for (auto& t : tables) {
    (void)t.SetKeyColumnsByName(TpchKeyColumns(t.name()));
  }
  return tables;
}

}  // namespace gent
