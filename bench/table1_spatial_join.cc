// [RM97-Tab1] The spatial self-join experiment: find all pairs of stock
// series whose 20-day moving averages (of normal forms) are within epsilon.
// Four algorithms, as in Table 1 of the paper:
//   a  sequential scan over the Fourier-coefficient relation, complete
//      distance computation for every pair
//   b  as a, but abandoning a pair as soon as the partial distance exceeds
//      epsilon
//   c  for every sequence, build a search rectangle and pose it to the
//      index as a range query -- without the transformation
//   d  as c, with T_mavg20 applied to both the index and the rectangles
//
// Claims: b is roughly an order of magnitude faster than a; c and d are
// roughly an order faster than b; d is a bit slower than c; the answer of d
// contains every pair twice (|d| = 2 |b|), and |c| < |d| because it misses
// pairs that are only similar after smoothing.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/transformation.h"
#include "ts/transforms.h"
#include "util/stats.h"
#include "util/table_printer.h"
#include "workload/generators.h"

namespace simq {
namespace {

void Run() {
  bench::PrintHeader(
      "RM97-Table1: spatial self-join under T_mavg20 (1067 x 128 stock "
      "relation)",
      "claims: time(a) >> time(b) >> time(c) ~ time(d); |answer(d)| = "
      "2*|answer(b)|; |answer(c)| < |answer(d)|");

  const std::vector<TimeSeries> market =
      workload::StockMarket(workload::StockMarketOptions());
  const auto db = bench::BuildDatabase(market);
  const auto mavg20 = MakeMovingAverageRule(20);

  // Calibrate epsilon so method b reports about 12 pairs, the paper's
  // answer-set size. The engineered smoothed-similar pairs make this a
  // natural operating point.
  std::vector<std::vector<double>> smoothed;
  const Relation* relation = db->GetRelation("r");
  smoothed.reserve(static_cast<size_t>(relation->size()));
  for (const Record& record : relation->records()) {
    smoothed.push_back(mavg20->Apply(ToNormalForm(record.raw).values));
  }
  std::vector<double> pair_distances;
  for (size_t i = 0; i < smoothed.size(); ++i) {
    for (size_t j = i + 1; j < smoothed.size(); ++j) {
      const double d =
          EuclideanDistanceEarlyAbandon(smoothed[i], smoothed[j], 2.0);
      if (d <= 2.0) {
        pair_distances.push_back(d);
      }
    }
  }
  std::sort(pair_distances.begin(), pair_distances.end());
  const double epsilon = workload::CalibrateEpsilon(pair_distances, 12);

  struct MethodSpec {
    const char* label;
    JoinMethod method;
    const TransformationRule* rule;
  };
  const MethodSpec methods[] = {
      {"a (full scan)", JoinMethod::kFullScan, mavg20.get()},
      {"b (early-abandon scan)", JoinMethod::kScanEarlyAbandon, mavg20.get()},
      {"c (index, no transform)", JoinMethod::kIndexNoTransform, nullptr},
      {"d (index + T_mavg20)", JoinMethod::kIndexTransform, mavg20.get()},
  };

  TablePrinter table({"method", "time_ms", "answer_size", "node_accesses",
                      "exact_checks"});
  double time_a = 0.0;
  double time_b = 0.0;
  double time_c = 0.0;
  double time_d = 0.0;
  for (const MethodSpec& spec : methods) {
    QueryResult last;
    const double ms = bench::MedianMillis(
        [&] {
          last = db->SelfJoin("r", epsilon, spec.rule, spec.method).value();
        },
        spec.method == JoinMethod::kFullScan ? 3 : 5);
    if (spec.method == JoinMethod::kFullScan) {
      time_a = ms;
    } else if (spec.method == JoinMethod::kScanEarlyAbandon) {
      time_b = ms;
    } else if (spec.method == JoinMethod::kIndexNoTransform) {
      time_c = ms;
    } else {
      time_d = ms;
    }
    table.AddRow({spec.label, TablePrinter::FormatDouble(ms, 2),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(last.pairs.size())),
                  TablePrinter::FormatInt(last.stats.node_accesses),
                  TablePrinter::FormatInt(last.stats.exact_checks)});
  }
  table.Print();

  // Same index methods on both traversal engines: the packed snapshot
  // (default, timed above) vs the pointer tree. Answer sets and node
  // accesses must agree; only the wall clock moves.
  TablePrinter engines({"method", "packed_ms", "pointer_ms", "engine_x",
                        "answers", "node_accesses"});
  for (const MethodSpec& spec : methods) {
    if (spec.method != JoinMethod::kIndexNoTransform &&
        spec.method != JoinMethod::kIndexTransform) {
      continue;
    }
    QueryResult packed_result;
    const double packed_ms = bench::MedianMillis(
        [&] {
          packed_result =
              db->SelfJoin("r", epsilon, spec.rule, spec.method).value();
        },
        5);
    db->set_index_engine(IndexEngine::kPointer);
    QueryResult pointer_result;
    const double pointer_ms = bench::MedianMillis(
        [&] {
          pointer_result =
              db->SelfJoin("r", epsilon, spec.rule, spec.method).value();
        },
        5);
    db->set_index_engine(IndexEngine::kPacked);
    const auto pair_ids = [](const QueryResult& result) {
      std::vector<std::pair<int64_t, int64_t>> ids;
      ids.reserve(result.pairs.size());
      for (const PairMatch& pair : result.pairs) {
        ids.emplace_back(pair.first, pair.second);
      }
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    const bool agree =
        pair_ids(packed_result) == pair_ids(pointer_result) &&
        packed_result.stats.node_accesses == pointer_result.stats.node_accesses;
    engines.AddRow(
        {spec.label, TablePrinter::FormatDouble(packed_ms, 2),
         TablePrinter::FormatDouble(pointer_ms, 2),
         TablePrinter::FormatDouble(pointer_ms / packed_ms, 2),
         TablePrinter::FormatInt(
             static_cast<int64_t>(packed_result.pairs.size())),
         TablePrinter::FormatInt(packed_result.stats.node_accesses)});
    if (!agree) {
      std::fprintf(stderr, "FATAL: traversal engines disagree on %s\n",
                   spec.label);
      std::exit(1);
    }
  }
  std::printf("\n  packed vs pointer traversal engine (identical answers "
              "and node accesses):\n");
  engines.Print();
  std::printf("\n  epsilon = %.4f\n", epsilon);
  std::printf("  ratios: a/b = %.1f   b/c = %.1f   b/d = %.1f   d/c = %.2f\n",
              time_a / time_b, time_b / time_c, time_b / time_d,
              time_d / time_c);
  std::printf(
      "\n  note: in-memory, the early-abandoning scan (b) is competitive at\n"
      "  the paper's N = 1067 because 1995 page reads are now L1 hits; the\n"
      "  paper's ordering is asymptotic (O(N^2) scans vs O(N log N) index)\n"
      "  and re-emerges as the relation grows:\n");

  TablePrinter growth({"num_series", "b_scan_ms", "d_index_ms",
                       "speedup_d_over_b", "b_exact_checks",
                       "d_exact_checks"});
  for (const int count : {1067, 4000, 12000}) {
    workload::StockMarketOptions options;
    options.num_series = count;
    const std::vector<TimeSeries> big_market = workload::StockMarket(options);
    const auto big_db = bench::BuildDatabase(big_market);
    QueryResult result_b;
    const double ms_b = bench::MedianMillis(
        [&] {
          result_b = big_db->SelfJoin("r", epsilon, mavg20.get(),
                                      JoinMethod::kScanEarlyAbandon)
                         .value();
        },
        3);
    QueryResult result_d;
    const double ms_d = bench::MedianMillis(
        [&] {
          result_d = big_db->SelfJoin("r", epsilon, mavg20.get(),
                                      JoinMethod::kIndexTransform)
                         .value();
        },
        3);
    growth.AddRow({TablePrinter::FormatInt(count),
                   TablePrinter::FormatDouble(ms_b, 2),
                   TablePrinter::FormatDouble(ms_d, 2),
                   TablePrinter::FormatDouble(ms_b / ms_d, 2),
                   TablePrinter::FormatInt(result_b.stats.exact_checks),
                   TablePrinter::FormatInt(result_d.stats.exact_checks)});
  }
  growth.Print();
}

}  // namespace
}  // namespace simq

int main() {
  simq::Run();
  return 0;
}
