// Mutated-SQL parser fuzz. Seeded mutations (byte flips, deletions,
// duplicated tokens, truncation, keyword case changes) of the generated
// Table-5 statements and of dashboard-style statements must each either be
// refused with InvalidArgument or parse to a Query whose ToSql parses back
// to the same ToSql. Nothing may crash; the sanitizer builds run this too.
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/datasets.h"
#include "harness/workload.h"
#include "query/sql_parser.h"

namespace pairwisehist {
namespace {

/// The paper's Table-5 workload preset over a small `flights` table.
std::vector<std::string> Table5Statements() {
  auto table = MakeDataset("flights", 5000, 1);
  EXPECT_TRUE(table.ok());
  if (!table.ok()) return {};
  auto queries = GenerateWorkload(table.value(), ScaledWorkloadConfig(1));
  EXPECT_TRUE(queries.ok());
  if (!queries.ok()) return {};
  std::vector<std::string> sqls;
  for (const Query& q : queries.value()) sqls.push_back(q.ToSql());
  return sqls;
}

/// Dashboard pages: one 5-predicate filter, eight aggregates of a column.
std::vector<std::string> DashboardStatements() {
  static const char* kFuncs[] = {"COUNT", "SUM", "AVG",    "VAR",
                                 "MIN",   "MAX", "MEDIAN", "MEAN"};
  static const char* kCols[] = {"global_active_power", "voltage",
                                "global_intensity", "sub_metering_1"};
  Rng rng(3);
  std::vector<std::string> sqls;
  for (size_t page = 0; page < 8; ++page) {
    char where[256];
    std::snprintf(where, sizeof(where),
                  " FROM power WHERE hour >= %d AND voltage > %.2f AND "
                  "global_intensity > %.1f AND sub_metering_3 < %.1f AND "
                  "day_of_week < %d;",
                  static_cast<int>(rng.UniformInt(0, 11)),
                  rng.Uniform(230, 245), rng.Uniform(0, 20),
                  rng.Uniform(0, 20), static_cast<int>(rng.UniformInt(3, 7)));
    for (const char* f : kFuncs) {
      sqls.push_back(std::string("SELECT ") + f + "(" + kCols[page % 4] +
                     ")" + where);
    }
  }
  return sqls;
}

std::vector<std::string> SplitOnSpaces(const std::string& s) {
  std::vector<std::string> tokens(1);
  for (char c : s) {
    if (c == ' ') {
      tokens.emplace_back();
    } else {
      tokens.back() += c;
    }
  }
  return tokens;
}

std::string JoinWithSpaces(const std::vector<std::string>& tokens) {
  std::string s;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i != 0) s += ' ';
    s += tokens[i];
  }
  return s;
}

/// Applies one random mutation to `s`.
void Mutate(Rng& rng, std::string* s) {
  static const char kInteresting[] = "'\"()<>=!;.-+eEx0123456789*, \t_aAnNoO";
  if (s->empty()) return;
  const size_t i = rng.UniformInt(s->size());
  switch (rng.UniformInt(6)) {
    case 0:  // flip to any byte
      (*s)[i] = static_cast<char>(rng.UniformInt(256));
      break;
    case 1:  // flip to a byte the lexer cares about
      (*s)[i] = kInteresting[rng.UniformInt(sizeof(kInteresting) - 1)];
      break;
    case 2:  // delete 1-4 bytes
      s->erase(i, 1 + rng.UniformInt(4));
      break;
    case 3: {  // duplicate a token
      std::vector<std::string> tokens = SplitOnSpaces(*s);
      const size_t t = rng.UniformInt(tokens.size());
      tokens.insert(tokens.begin() + static_cast<ptrdiff_t>(t), tokens[t]);
      *s = JoinWithSpaces(tokens);
      break;
    }
    case 4:  // truncate
      s->resize(i);
      break;
    default: {  // change the case of letters in a token
      std::vector<std::string> tokens = SplitOnSpaces(*s);
      std::string& tok = tokens[rng.UniformInt(tokens.size())];
      for (char& c : tok) {
        const bool letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
        if (letter && rng.UniformInt(2) == 1) c ^= 0x20;
      }
      *s = JoinWithSpaces(tokens);
      break;
    }
  }
}

TEST(SqlParserFuzz, MutatedStatementsRoundTripOrFailCleanly) {
  std::vector<std::string> base = Table5Statements();
  const std::vector<std::string> dashboard = DashboardStatements();
  ASSERT_GE(base.size(), 100u);
  base.insert(base.end(), dashboard.begin(), dashboard.end());

  constexpr size_t kMutantsPerStatement = 40;
  Rng rng(20240117);
  size_t accepted = 0;
  size_t refused = 0;
  for (const std::string& sql : base) {
    auto original = ParseSql(sql);
    ASSERT_TRUE(original.ok()) << sql << ": " << original.status().ToString();
    for (size_t m = 0; m < kMutantsPerStatement; ++m) {
      std::string mutant = sql;
      const size_t edits = 1 + rng.UniformInt(3);
      for (size_t e = 0; e < edits; ++e) Mutate(rng, &mutant);

      auto q = ParseSql(mutant);
      if (!q.ok()) {
        ++refused;
        EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument)
            << mutant << ": " << q.status().ToString();
        continue;
      }
      ++accepted;
      const std::string text = q->ToSql();
      auto again = ParseSql(text);
      ASSERT_TRUE(again.ok()) << "mutant: " << mutant << "\nToSql: " << text
                              << "\n" << again.status().ToString();
      EXPECT_EQ(again->ToSql(), text) << "mutant: " << mutant;
    }
  }
  // Both outcomes are exercised in bulk.
  EXPECT_GT(accepted, base.size());
  EXPECT_GT(refused, base.size());
}

}  // namespace
}  // namespace pairwisehist
