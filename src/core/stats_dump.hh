/**
 * @file
 * Full statistics dump, in the spirit of gem5's stats.txt: every
 * counter the simulator keeps, built once as a StatsNode tree
 * (obs/stats_tree.hh) and rendered as text or JSON. The text and JSON
 * forms share one schema: every text path is a JSON path.
 */

#ifndef TCC_CORE_STATS_DUMP_HH
#define TCC_CORE_STATS_DUMP_HH

#include <ostream>

#include "core/system.hh"
#include "obs/stats_tree.hh"

namespace tcc {

/**
 * Every statistic of @p sys as one ordered tree:
 *   config              resolved configuration
 *   system              run-level aggregates
 *   network             message/byte/hop counters by traffic class
 *   pdes                parallel-engine counters (PDES runs only)
 *   metrics             epoch time series (sampler armed only)
 *   contention          hot words + blame graph (profiler armed only)
 *   procs[]             per-processor breakdown, transactions, cache
 *   dirs[]              per-directory protocol counters
 *   tx_ledger[]         per-transaction lifecycle, rendered only when
 *                       the run was traced (TraceConfig::capacity)
 *   tx_ledger_summary   ledger-wide violation causes, every run
 */
StatsNode buildStatsTree(const System &sys);

/** The tree as "name value" lines between begin/end marker lines. */
void dumpStats(const System &sys, std::ostream &os);

/** The tree as one line of JSON with stable key order and "%.6g"
 *  doubles, so a deterministic run is byte-identical everywhere. */
void dumpStatsJson(const System &sys, std::ostream &os);

} // namespace tcc

#endif // TCC_CORE_STATS_DUMP_HH
