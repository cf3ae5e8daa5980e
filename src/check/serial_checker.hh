/**
 * @file
 * Serializability checker. Records every committed transaction's read
 * and write logs and verifies, after the run, that the execution is
 * equivalent to executing the committed transactions serially in TID
 * order: each transaction's reads must equal the state produced by all
 * lower-TID transactions' writes.
 *
 * This is the strongest end-to-end correctness oracle for the
 * protocol: any missed conflict (lost invalidation, wrong violation
 * rule, commit-order bug) shows up as a read-value mismatch.
 */

#ifndef TCC_CHECK_SERIAL_CHECKER_HH
#define TCC_CHECK_SERIAL_CHECKER_HH

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "mem/global_store.hh"

namespace tcc {

/** Collects commit logs and replays them in TID order. */
class SerialChecker
{
  public:
    /** Pre-run initialization value (non-transactional setup state). */
    void
    setInitial(Addr addr, std::uint64_t value)
    {
        initial.write(addr, value);
    }

    /** Record one committed transaction (called from the commit hook;
     *  callers move in logs they no longer need). */
    void
    record(Tid tid, NodeId proc,
           std::vector<std::pair<Addr, std::uint64_t>> reads,
           std::vector<std::pair<Addr, std::uint64_t>> writes)
    {
        log.push_back(Record{tid, proc, std::move(reads),
                             std::move(writes)});
    }

    /** Move every record of @p other into this log (PDES gathers the
     *  per-domain logs at finalize; verify() orders by TID anyway). */
    void
    absorb(SerialChecker &other)
    {
        log.insert(log.end(), std::make_move_iterator(other.log.begin()),
                   std::make_move_iterator(other.log.end()));
        other.log.clear();
    }

    struct Result {
        bool ok = true;
        std::string error;
        std::uint64_t txnsChecked = 0;
    };

    /** Replay all recorded commits in TID order and check every read. */
    Result verify() const;

    /** Replace @p out's contents with the final memory state implied
     *  by serial replay (for comparison against the simulator's
     *  GlobalStore). */
    void replayFinalState(GlobalStore &out) const;

    std::size_t numRecords() const { return log.size(); }

  private:
    struct Record {
        Tid tid;
        NodeId proc;
        std::vector<std::pair<Addr, std::uint64_t>> reads;
        std::vector<std::pair<Addr, std::uint64_t>> writes;
    };

    /** The records in TID order. */
    std::vector<const Record *> tidOrder() const;

    std::vector<Record> log;
    /** Pre-run state (initializeWord values). */
    GlobalStore initial;
};

} // namespace tcc

#endif // TCC_CHECK_SERIAL_CHECKER_HH
