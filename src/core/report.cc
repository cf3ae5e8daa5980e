#include "core/report.hh"

#include <cstdio>

namespace tcc {

namespace {

/** Merge one distribution from every processor into a single one. */
template <typename Get>
Distribution
mergeProcDist(const System &sys, Get get)
{
    Distribution all;
    for (NodeId p = 0; p < sys.numProcs(); ++p)
        all.merge(get(sys.proc(p).stats()));
    return all;
}

} // namespace

AppCharacterization
characterize(const System &sys, const std::string &name)
{
    AppCharacterization c;
    c.name = name;

    // Pool every commit's samples; because every processor runs the
    // same SPMD workload, pooling quantiles is a good estimator of the
    // global 90th percentile.
    const double line_kb = sys.cfg().cache.lineBytes / 1024.0;
    Distribution size, ws, rs, opw;
    for (const TxLedgerEntry &e : sys.ledger()) {
        size.sample(static_cast<double>(e.instructions));
        ws.sample(e.writeLines * line_kb);
        rs.sample(e.readLines * line_kb);
        if (e.wordsWritten != 0) {
            opw.sample(static_cast<double>(e.instructions) /
                       static_cast<double>(e.wordsWritten));
        }
    }
    Distribution dpc = mergeProcDist(sys, [](const auto &s) -> const
                                     Distribution & {
        return s.dirsPerCommit;
    });

    c.txnSize90 = size.percentile(90);
    c.writeSetKB90 = ws.percentile(90);
    c.readSetKB90 = rs.percentile(90);
    c.opsPerWordWritten90 = opw.percentile(90);
    c.dirsPerCommit90 = dpc.percentile(90);

    Distribution working, occ;
    for (NodeId d = 0; d < sys.numProcs(); ++d) {
        const auto &ds = sys.directory(d).stats();
        if (ds.workingSet.count() > 0)
            working.sample(ds.workingSet.percentile(90));
        if (ds.commitOccupancy.count() > 0)
            occ.sample(ds.commitOccupancy.percentile(90));
    }
    c.dirWorkingSet90 = working.percentile(90);
    c.dirOccupancy90 = occ.percentile(90);
    return c;
}

std::string
table3Header()
{
    return "application      txn_size  wr_set_KB  rd_set_KB  ops/word "
           " dirs/commit  dir_wset  dir_occupancy\n"
           "                 (90th %)   (90th %)   (90th %)  (90th %) "
           "    (90th %)  (90th %)       (90th %)";
}

std::string
table3Row(const AppCharacterization &c)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%-16s %8.0f %10.2f %10.2f %9.1f %12.1f %9.0f %14.0f",
                  c.name.c_str(), c.txnSize90, c.writeSetKB90,
                  c.readSetKB90, c.opsPerWordWritten90,
                  c.dirsPerCommit90, c.dirWorkingSet90,
                  c.dirOccupancy90);
    return buf;
}

std::string
breakdownHeader()
{
    return "label                 useful%   miss%   idle% commit% "
           "violation%";
}

std::string
breakdownRow(const std::string &label, const Breakdown &bd)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%-20s %8.1f %7.1f %7.1f %7.1f %10.1f",
                  label.c_str(), 100.0 * bd.fraction(bd.useful),
                  100.0 * bd.fraction(bd.miss),
                  100.0 * bd.fraction(bd.idle),
                  100.0 * bd.fraction(bd.commit),
                  100.0 * bd.fraction(bd.violation));
    return buf;
}

TrafficRow
trafficPerInstr(const System &sys, const std::string &name)
{
    TrafficRow row;
    row.name = name;
    const auto &ns = sys.network().stats();
    const double instr =
        static_cast<double>(sys.committedInstructions());
    if (instr <= 0)
        return row;
    row.overhead =
        ns.classBytes[(int)TrafficClass::Overhead] / instr;
    row.miss = ns.classBytes[(int)TrafficClass::Miss] / instr;
    row.writeBack =
        ns.classBytes[(int)TrafficClass::WriteBack] / instr;
    row.shared = ns.classBytes[(int)TrafficClass::Shared] / instr;
    return row;
}

std::string
trafficHeader()
{
    return "application       overhead      miss  writeback    shared "
           "    total  (bytes/instr)";
}

std::string
trafficRowText(const TrafficRow &row)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%-16s %9.4f %9.4f %10.4f %9.4f %9.4f",
                  row.name.c_str(), row.overhead, row.miss,
                  row.writeBack, row.shared, row.total());
    return buf;
}

} // namespace tcc
