// Answer comparisons shared by the ReclaimService tests: what "the same
// reclamation answer" means for the determinism contract and for
// discovery-cache hits.

#ifndef GENT_TESTS_ANSWER_CHECKS_H_
#define GENT_TESTS_ANSWER_CHECKS_H_

#include <string>

#include <gtest/gtest.h>

#include "src/gent/gent.h"

namespace gent::testing {

// Cells, column names, table name and key columns.
inline bool SameTable(const Table& a, const Table& b) {
  return a.name() == b.name() && a.key_columns() == b.key_columns() &&
         TablesBitIdentical(a, b);
}

// Every answer field: the reclaimed table, each originating table, the
// originating names and the predicted EIS (exactly). Phase timings and
// cache_hit describe how the answer was produced, not the answer.
inline bool SameAnswer(const ReclamationResult& a,
                       const ReclamationResult& b) {
  if (!SameTable(a.reclaimed, b.reclaimed)) return false;
  if (a.originating.size() != b.originating.size()) return false;
  for (size_t i = 0; i < a.originating.size(); ++i) {
    if (!SameTable(a.originating[i], b.originating[i])) return false;
  }
  return a.originating_names == b.originating_names &&
         a.predicted_eis == b.predicted_eis;
}

// Same status code on failure, SameAnswer on success.
inline bool SameOutcome(const Result<ReclamationResult>& a,
                        const Result<ReclamationResult>& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.status().code() == b.status().code();
  return SameAnswer(*a, *b);
}

// SameOutcome as gtest expectations, naming the field that differs.
inline void ExpectSameReclamation(const Result<ReclamationResult>& a,
                                  const Result<ReclamationResult>& b,
                                  const std::string& context) {
  ASSERT_EQ(a.ok(), b.ok()) << context << ": " << a.status().ToString()
                            << " vs " << b.status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status().code(), b.status().code()) << context;
    return;
  }
  EXPECT_TRUE(TablesBitIdentical(a->reclaimed, b->reclaimed)) << context;
  EXPECT_EQ(a->originating_names, b->originating_names) << context;
  EXPECT_EQ(a->predicted_eis, b->predicted_eis) << context;
  EXPECT_TRUE(SameAnswer(*a, *b)) << context;
}

// What DiscoveryCache::Stats::bytes charges for one cached answer.
inline size_t AnswerBytes(const ReclamationResult& r) {
  size_t bytes = r.reclaimed.num_rows() * r.reclaimed.num_cols();
  for (const Table& t : r.originating) bytes += t.num_rows() * t.num_cols();
  return bytes * sizeof(ValueId);
}

}  // namespace gent::testing

#endif  // GENT_TESTS_ANSWER_CHECKS_H_
