/**
 * @file
 * Serializability checker. Verifies that the execution is equivalent
 * to executing the committed transactions serially in TID order: each
 * transaction's reads must equal the state produced by all lower-TID
 * transactions' writes.
 *
 * The replay is streamed. Commits arrive out of TID order, so each
 * record waits in a window indexed by TID until every lower TID has
 * settled - committed (recorded) or released by an aborted attempt -
 * and is then replayed into the model and dropped. A checked run holds
 * only the records of in-flight TIDs, not its whole commit log. This is
 * timestamp-order validation on the same frontier the directories
 * retire TIDs on.
 *
 * This is the strongest end-to-end correctness oracle for the
 * protocol: any missed conflict (lost invalidation, wrong violation
 * rule, commit-order bug) shows up as a read-value mismatch.
 */

#ifndef TCC_CHECK_SERIAL_CHECKER_HH
#define TCC_CHECK_SERIAL_CHECKER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "mem/global_store.hh"

namespace tcc {

/** Replays commit logs in TID order as the TID frontier settles. */
class SerialChecker
{
  public:
    /** One transaction's (word address, value) pairs. */
    using Log = std::vector<std::pair<Addr, std::uint64_t>>;

    /** Pre-run initialization value (non-transactional setup state). */
    void
    setInitial(Addr addr, std::uint64_t value)
    {
        model.write(addr, value);
    }

    /** Record one committed transaction and replay every commit whose
     *  lower TIDs have all settled (called from the commit hook;
     *  callers move in logs they no longer need). */
    void record(Tid tid, NodeId proc, Log reads, Log writes);

    /** @p tid will never commit (its attempt aborted after announcing
     *  it), so the replay may pass it. */
    void release(Tid tid);

    /** An empty log that keeps the capacity of a replayed record's log
     *  (a fresh one if none is spare), so a commit hook can hand its
     *  caller a buffer back instead of allocating. */
    Log recycledLog();

    struct Result {
        bool ok = true;
        std::string error;
        std::uint64_t txnsChecked = 0;
    };

    /**
     * Replay what is still pending in TID order, gaps allowed (an
     * incomplete run, a TID lost without a release), and return the
     * verdict: the failure at the lowest TID, and the committed
     * transactions below it that checked out. Call after the last
     * record; repeated calls return the same verdict.
     */
    Result verify() const;

    /** Replace @p out's contents with the final memory state implied
     *  by serial replay (for comparison against the simulator's
     *  GlobalStore). */
    void replayFinalState(GlobalStore &out) const;

    /** Most records held at once waiting for a lower TID to settle. */
    std::size_t pendingHighWater() const { return pendingPeak; }

  private:
    struct Slot {
        bool committed = false;
        /** A second record for this TID arrived while it was pending. */
        bool duplicate = false;
        NodeId proc = 0;
        Log reads;
        Log writes;
    };

    /** Replay the window's settled prefix, recycling its logs. */
    void drain();
    /** Replay every pending record, gaps allowed (verify()). */
    void settle() const;
    /** Check @p s's reads (below the first failure) and apply its
     *  writes to the model. */
    void replay(Tid tid, const Slot &s) const;
    /** Keep the failure at the lowest TID. */
    void fail(Tid tid, const char *fmt, ...) const
        __attribute__((format(printf, 3, 4)));
    void recycle(Log &log);

    // verify() is logically const - the verdict depends only on what
    // was recorded - but settles the stream, so the replay state is
    // mutable.
    /** The replay model: initial state plus every replayed commit. */
    mutable GlobalStore model;
    /** Slot i is TID next + i. */
    mutable std::deque<Slot> window;
    /** Lowest TID not yet settled. */
    mutable Tid next = 0;
    mutable std::size_t pending = 0;
    std::size_t pendingPeak = 0;
    /** TIDs released before any record named them. */
    std::vector<bool> released;
    /** Lowest failing TID (kInvalidTid: none) and its message. */
    mutable Tid failTid = kInvalidTid;
    mutable std::string error;
    /** Committed transactions below failTid whose reads checked out. */
    mutable std::uint64_t checked = 0;
    /** Cleared logs of replayed records, capacity kept. */
    std::vector<Log> spare;
};

} // namespace tcc

#endif // TCC_CHECK_SERIAL_CHECKER_HH
