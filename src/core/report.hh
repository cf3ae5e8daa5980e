/**
 * @file
 * Reporting helpers: render the paper's tables and figure data series
 * as text from a finished System run. Used by the benchmark harness
 * and the examples.
 */

#ifndef TCC_CORE_REPORT_HH
#define TCC_CORE_REPORT_HH

#include <cstdint>
#include <string>

#include "core/system.hh"

namespace tcc {

/** One row of the Table 3 characterization for a finished run. */
struct AppCharacterization {
    std::string name;
    double txnSize90 = 0;        ///< 90th-pct transaction instructions
    double writeSetKB90 = 0;     ///< 90th-pct write-set KB
    double readSetKB90 = 0;      ///< 90th-pct read-set KB
    double opsPerWordWritten90 = 0;
    double dirsPerCommit90 = 0;
    double dirWorkingSet90 = 0;  ///< entries with remote sharers
    double dirOccupancy90 = 0;   ///< busy cycles per commit
};

/** Aggregate the Table 3 row from all processors/directories. */
AppCharacterization characterize(const System &sys,
                                 const std::string &name);

/** Render one Table 3 row (header printed via table3Header()). */
std::string table3Header();
std::string table3Row(const AppCharacterization &c);

/** Normalized execution-time breakdown line: "useful miss idle commit
 *  violation" as percentages (Figures 6/7/8). */
std::string breakdownRow(const std::string &label, const Breakdown &bd);
std::string breakdownHeader();

/** Figure 9 traffic row: bytes/instr by class at each directory. */
struct TrafficRow {
    std::string name;
    double overhead = 0;
    double miss = 0;
    double writeBack = 0;
    double shared = 0;

    double
    total() const
    {
        return overhead + miss + writeBack + shared;
    }
};

TrafficRow trafficPerInstr(const System &sys, const std::string &name);
std::string trafficHeader();
std::string trafficRowText(const TrafficRow &row);

} // namespace tcc

#endif // TCC_CORE_REPORT_HH
