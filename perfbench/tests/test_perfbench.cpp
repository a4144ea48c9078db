// Tests of the benchmark itself: every oracle rejects a deliberately
// corrupted history (stale reads and misreported writes included), the
// printer emits every named metric with its unit,
// and traced and untraced runs of one seed complete the same op count.
//
//   cmake -S perfbench -B <build> && cmake --build <build> --target perfbench_tests
//   <build>/perfbench_tests
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "obs/json.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

// -- kv-ingest round-contract oracle ---------------------------------------------

/// A valid epoch: key 0 has an upsert winner and two losers in round 5,
/// key 1 an erase winner beating an upsert in round 6.
std::vector<WriteRecord> valid_epoch() {
  const std::uint64_t v0 = encode_value(0, 7);
  const std::uint64_t v0b = encode_value(0, 8);
  const std::uint64_t v1 = encode_value(1, 9);
  return {
      {0, 5, v0, v0, false, true},
      {0, 5, v0, v0b, false, false},
      {0, 5, v0, 0, true, false},
      {1, 6, 0, 0, true, true},
      {1, 6, 0, v1, false, false},
  };
}

TEST(IngestOracle, AcceptsAValidHistoryAndFoldsOutcomes) {
  IngestState state(4);
  auto epoch = valid_epoch();
  EXPECT_EQ(check_write_epoch(epoch, state), "");
  EXPECT_EQ(state.expected(0), encode_value(0, 7));
  EXPECT_EQ(state.expected(1), 0u);
  EXPECT_EQ(state.last_round(0), 5u);
}

TEST(IngestOracle, RejectsTwoWinnersInOneRound) {
  IngestState state(4);
  auto epoch = valid_epoch();
  epoch[1].won = true;
  EXPECT_NE(check_write_epoch(epoch, state).find("two writes won"), std::string::npos);
}

TEST(IngestOracle, RejectsARoundWithoutWinner) {
  IngestState state(4);
  auto epoch = valid_epoch();
  epoch[3].won = false;
  EXPECT_NE(check_write_epoch(epoch, state).find("no write won"), std::string::npos);
}

TEST(IngestOracle, RejectsALoserThatMissedTheWinnersValue) {
  IngestState state(4);
  auto epoch = valid_epoch();
  epoch[1].reported = encode_value(0, 8);  // its own value, not the winner's
  EXPECT_NE(check_write_epoch(epoch, state).find("loser reported"), std::string::npos);
}

TEST(IngestOracle, RejectsALoserThatMissedAWinningErase) {
  IngestState state(4);
  auto epoch = valid_epoch();
  epoch[4].reported = encode_value(1, 9);
  EXPECT_FALSE(check_write_epoch(epoch, state).empty());
}

TEST(IngestOracle, RejectsARoundSplitAcrossEpochs) {
  IngestState state(4);
  auto first = valid_epoch();
  ASSERT_EQ(check_write_epoch(first, state), "");
  std::vector<WriteRecord> late = {{0, 5, encode_value(0, 7), encode_value(0, 9), false, false}};
  EXPECT_NE(check_write_epoch(late, state).find("not later"), std::string::npos);
}

TEST(IngestOracle, FinalStateMustMatchTheLastWinningRound) {
  IngestState state(4);
  auto epoch = valid_epoch();
  ASSERT_EQ(check_write_epoch(epoch, state), "");
  std::map<std::size_t, std::uint64_t> table = {{0, encode_value(0, 7)}};
  const auto committed = [&](std::size_t k) -> std::optional<std::uint64_t> {
    const auto it = table.find(k);
    return it == table.end() ? std::nullopt : std::optional<std::uint64_t>(it->second);
  };
  EXPECT_EQ(check_final_state(state, committed), "");
  table[0] = encode_value(0, 8);  // a loser's value got committed
  EXPECT_FALSE(check_final_state(state, committed).empty());
  table[0] = encode_value(0, 7);
  table[1] = encode_value(1, 9);  // the erase that won did not stick
  EXPECT_FALSE(check_final_state(state, committed).empty());
}

// -- read-your-writes oracle -------------------------------------------------------

TEST(RywOracle, RejectsALookupNotAfterTheClientsAcknowledgedWrite) {
  RywAudit audit(2);
  audit.note_write(1, 40);
  EXPECT_EQ(audit.bound(1), 40u);
  EXPECT_EQ(audit.bound(0), 0u);
  EXPECT_EQ(RywAudit::check_lookup(3, 41, audit.bound(1), true, encode_value(3, 1)), "");
  EXPECT_FALSE(RywAudit::check_lookup(3, 40, audit.bound(1), true, encode_value(3, 1)).empty());
  EXPECT_FALSE(RywAudit::check_lookup(3, 12, audit.bound(1), false, 0).empty());
}

TEST(RywOracle, RejectsAValueWrittenUnderAnotherKey) {
  EXPECT_FALSE(RywAudit::check_lookup(3, 9, 0, true, encode_value(4, 1)).empty());
  EXPECT_FALSE(RywAudit::check_lookup(3, 9, 0, false, 17).empty());
  EXPECT_EQ(RywAudit::check_lookup(3, 9, 0, false, 0), "");
}

// -- kv-mixed exact-value oracle ----------------------------------------------------

TEST(ValueLedger, RejectsAStaleRead) {
  ValueLedger ledger(8);
  const std::uint64_t old_v = encode_value(3, 1);
  const std::uint64_t new_v = encode_value(3, 2);
  ledger.note_upsert(3, 10, old_v);
  ledger.note_upsert(3, 11, new_v);
  EXPECT_EQ(ledger.expected(3), new_v);
  EXPECT_EQ(ValueLedger::check_lookup(3, true, new_v, ledger.expected(3), false, 2), "");
  // A later window reads the key's older value: stale.
  EXPECT_FALSE(ValueLedger::check_lookup(3, true, old_v, ledger.expected(3), false, 2).empty());
  // A miss of a key the client wrote and never erased.
  EXPECT_FALSE(ValueLedger::check_lookup(3, false, 0, ledger.expected(3), false, 2).empty());
  // Never written: only a miss passes.
  EXPECT_EQ(ValueLedger::check_lookup(4, false, 0, ledger.expected(4), false, 2), "");
  EXPECT_FALSE(
      ValueLedger::check_lookup(4, true, encode_value(4, 1), ledger.expected(4), false, 2).empty());
}

TEST(ValueLedger, ARacedLookupMayOnlySeeItsOwnWindowsWrites) {
  ValueLedger ledger(8);
  ledger.note_upsert(3, 10, encode_value(3, 1));
  // Window after tag 4: an upsert of key 3 with tag 6 is in flight.
  EXPECT_EQ(ValueLedger::check_lookup(3, true, encode_value(3, 1), ledger.expected(3), true, 4),
            "");
  EXPECT_EQ(ValueLedger::check_lookup(3, true, encode_value(3, 6), ledger.expected(3), true, 4),
            "");
  // A value from an earlier window that the ledger already replaced.
  EXPECT_FALSE(
      ValueLedger::check_lookup(3, true, encode_value(3, 3), ledger.expected(3), true, 4).empty());
  // Not raced: the in-window value cannot be seen.
  EXPECT_FALSE(
      ValueLedger::check_lookup(3, true, encode_value(3, 6), ledger.expected(3), false, 4).empty());
}

TEST(ValueLedger, RejectsUpsertsThatMisreportTheCommittedValue) {
  const std::uint64_t own = encode_value(2, 7);
  EXPECT_EQ(ValueLedger::check_upsert(2, own, true, own, 5), "");
  EXPECT_FALSE(ValueLedger::check_upsert(2, own, true, encode_value(2, 6), 5).empty());
  EXPECT_EQ(ValueLedger::check_upsert(2, own, false, encode_value(2, 6), 5), "");
  EXPECT_FALSE(ValueLedger::check_upsert(2, own, false, own, 5).empty());  // lost to itself
  EXPECT_FALSE(ValueLedger::check_upsert(2, own, false, encode_value(2, 4), 5).empty());
  EXPECT_FALSE(ValueLedger::check_upsert(2, own, false, encode_value(1, 6), 5).empty());
  EXPECT_TRUE(refused(false, 0));
  EXPECT_FALSE(refused(true, 0));
}

TEST(ValueLedger, KeepsTheLatestRoundsOutcome) {
  ValueLedger ledger(4);
  ledger.note_upsert(1, 9, encode_value(1, 2));
  ledger.note_upsert(1, 8, encode_value(1, 1));  // acknowledged later, ran earlier
  EXPECT_EQ(ledger.expected(1), encode_value(1, 2));
}

// -- pram-cc label oracle -------------------------------------------------------

TEST(LabelOracle, RejectsACorruptedLabelSet) {
  const std::vector<std::uint32_t> ref = {0, 0, 2, 2, 4};
  EXPECT_EQ(check_labels(ref, ref), "");
  std::vector<std::uint32_t> bad = ref;
  bad[3] = 0;  // merges two components
  EXPECT_NE(check_labels(bad, ref).find("vertex 3"), std::string::npos);
  bad = ref;
  bad.pop_back();
  EXPECT_FALSE(check_labels(bad, ref).empty());
}

// -- printer ------------------------------------------------------------------------

void expect_prints_all(const std::vector<std::string>& names) {
  Outcome o;
  o.attempted = 10;
  o.failed = 1;
  double v = 1.0;
  for (const std::string& n : names) o.add(n, v += 0.125, unit_of(n));
  const crcw::obs::json::Value doc = crcw::obs::json::parse(format_outcome(o));
  std::set<std::string> keys;
  for (const auto& m : doc.members()) keys.insert(m.first);
  EXPECT_EQ(keys, (std::set<std::string>{"correct", "attempted", "failed", "metrics"}));
  EXPECT_TRUE(doc.find("correct")->as_bool());
  EXPECT_EQ(doc.find("attempted")->as_uint(), 10u);
  EXPECT_EQ(doc.find("failed")->as_uint(), 1u);
  const crcw::obs::json::Value* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->size(), names.size());
  v = 1.0;
  for (const std::string& n : names) {
    const crcw::obs::json::Value* m = metrics->find(n);
    ASSERT_NE(m, nullptr) << n;
    EXPECT_EQ(m->find("unit")->as_string(), unit_of(n)) << n;
    EXPECT_FALSE(m->find("unit")->as_string().empty()) << n;
    EXPECT_DOUBLE_EQ(m->find("value")->as_double(), v += 0.125) << n;
  }
}

TEST(Printer, EmitsEveryEndToEndMetricWithItsUnit) {
  EXPECT_EQ(end_to_end_metric_names().size(), 6u);
  expect_prints_all(end_to_end_metric_names());
}

TEST(Printer, EmitsEveryPerLayerMetricWithItsUnit) { expect_prints_all(per_layer_metric_names()); }

TEST(Printer, KeepsAllDigitsAndRefusesNonFiniteValues) {
  Outcome o;
  o.attempted = 1;
  o.add("latency_p50_us", 1.0 / 3.0, "us");
  EXPECT_NE(format_outcome(o).find("0.3333333333333333"), std::string::npos);
  o.add("latency_p99_us", std::numeric_limits<double>::infinity(), "us");
  EXPECT_THROW((void)format_outcome(o), std::logic_error);
}

// -- recorder and inputs --------------------------------------------------------------

TEST(LogHistogram, FewSamplesGiveExactQuantiles) {
  LogHistogram a;
  LogHistogram b;
  for (const std::uint64_t v : {300000123u, 310000456u}) a.record(v);
  b.record(290000789u);
  a.merge(b);
  EXPECT_EQ(a.quantile(0.5), 300000123.0);
  EXPECT_EQ(a.quantile(0.99), 310000456.0);
  EXPECT_EQ(a.quantile(0.0), 290000789.0);
}

TEST(LogHistogram, QuantilesStayWithinOnePercent) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.record(v * 37);
  EXPECT_NEAR(h.quantile(0.5), 50000.0 * 37, 50000.0 * 37 * 0.01);
  EXPECT_NEAR(h.quantile(0.99), 99000.0 * 37, 99000.0 * 37 * 0.01);
  EXPECT_EQ(h.count(), 100000u);
}

TEST(Inputs, SameSeedSameStreams) {
  const KvInputs a = make_ingest_inputs(9, 1 << 12, 2, 1000, 0.99, 0.2);
  const KvInputs b = make_ingest_inputs(9, 1 << 12, 2, 1000, 0.99, 0.2);
  const KvInputs c = make_ingest_inputs(10, 1 << 12, 2, 1000, 0.99, 0.2);
  ASSERT_EQ(a.streams.size(), 2u);
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_NE(a.keys, c.keys);
  std::size_t erases = 0;
  std::vector<std::size_t> hits(1 << 12, 0);
  for (std::size_t i = 0; i < a.streams[0].size(); ++i) {
    EXPECT_EQ(a.streams[0][i].key_idx, b.streams[0][i].key_idx);
    erases += a.streams[0][i].kind == crcw::serve::OpKind::kErase ? 1 : 0;
    ++hits[a.streams[0][i].key_idx];
  }
  EXPECT_GT(erases, 100u);
  EXPECT_LT(erases, 300u);
  EXPECT_GT(hits[0], hits[100]);  // Zipf: rank 0 is the hottest key
}

// -- options --------------------------------------------------------------------------

TEST(Options, AcceptsOnlyTheContractFlags) {
  std::vector<std::string> args = {"perfbench", "--workload", "kv-mixed", "--seed", "5",
                                   "--seconds", "2", "--trace", "1"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const Options o = parse_options(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(o.workload, "kv-mixed");
  EXPECT_EQ(o.seed, 5u);
  EXPECT_TRUE(o.trace);
  EXPECT_EQ(o.ops, 0u);
  EXPECT_FALSE(o.small);
  for (const char* extra : {"--small", "--ops"}) {
    std::vector<std::string> more = args;
    more.push_back(extra);
    more.push_back("100");
    std::vector<char*> mv;
    for (std::string& a : more) mv.push_back(a.data());
    EXPECT_THROW(parse_options(static_cast<int>(mv.size()), mv.data()), std::invalid_argument)
        << extra;
  }
}

// -- traced vs untraced parity ----------------------------------------------------------

RunStats run_small(const std::string& workload, bool trace, std::uint64_t ops) {
  Options opt;
  opt.workload = workload;
  opt.seed = 3;
  opt.trace = trace;
  opt.ops = ops;
  opt.small = true;
  if (workload == "kv-ingest") return run_kv_ingest(opt);
  if (workload == "kv-mixed") return run_kv_mixed(opt);
  if (workload == "kv-wire") return run_kv_wire(opt);
  return run_pram_cc(opt);
}

class Parity : public ::testing::TestWithParam<const char*> {};

TEST_P(Parity, TracedAndUntracedRunsCompleteTheSameOpCount) {
  const std::uint64_t ops = std::string(GetParam()) == "pram-cc" ? 4 : 6000;
  const RunStats plain = run_small(GetParam(), false, ops);
  const RunStats traced = run_small(GetParam(), true, ops);
  ASSERT_EQ(plain.error, "");
  ASSERT_EQ(traced.error, "");
  EXPECT_EQ(plain.timed.attempted, ops);
  EXPECT_EQ(plain.timed.completed, ops);
  EXPECT_EQ(traced.timed.completed + traced.traced.completed, ops);
  EXPECT_EQ(traced.timed.attempted + traced.traced.attempted, ops);
  EXPECT_TRUE(traced.has_traced);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Parity,
                         ::testing::Values("kv-ingest", "kv-mixed", "kv-wire", "pram-cc"));

}  // namespace
}  // namespace pb
