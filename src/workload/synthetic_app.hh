/**
 * @file
 * Synthetic application suite.
 *
 * The paper evaluates Scalable TCC with SPLASH-2 (barnes, radix,
 * volrend, water-nsquared, water-spatial), SPEC CPU2000 FP (equake,
 * swim, tomcatv), SPECjbb2000 on a JVM, and two CEARCH codes (Cluster
 * GA, SVM Classify). We do not have those binaries or an ISA
 * simulator, so each application is substituted by a *replayable
 * transaction-stream generator* calibrated to the per-application TM
 * characteristics the paper publishes in Table 3: transaction size in
 * instructions, read-/write-set sizes, operations per word written,
 * directories touched per commit, plus qualitative behaviour described
 * in Section 4.2 (communication pattern, conflict frequency, barrier
 * structure). The protocol observes an application only through this
 * footprint, so matching it exercises the same protocol paths.
 *
 * Memory layout (word addresses; pages explicitly bound so homing is
 * deterministic, modeling the paper's first-touch placement):
 *   - a private slice per processor (stack/local arrays),
 *   - a shared slice per processor (the partition of the shared data
 *     this processor owns and mostly writes),
 *   - a small hot region of contended words (locks/reductions/flags).
 */

#ifndef TCC_WORKLOAD_SYNTHETIC_APP_HH
#define TCC_WORKLOAD_SYNTHETIC_APP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/random.hh"
#include "workload/transaction_source.hh"

namespace tcc {

/** Calibration knobs for one synthetic application. */
struct AppProfile {
    std::string name;

    // --- transaction shape (Table 3 columns) -------------------------
    /** Median transaction size in instructions (lognormal). */
    double instrMedian = 4000;
    /** Lognormal sigma for the size distribution. */
    double instrSigma = 0.5;
    /** Mean words read per transaction. */
    std::uint32_t readWords = 200;
    /** Mean words written per transaction. */
    std::uint32_t writeWords = 48;
    /** Spatial run length for reads/writes (words per contiguous
     *  burst; larger runs -> fewer lines per KB of set). */
    std::uint32_t runLength = 8;

    // --- sharing / communication --------------------------------------
    /** Fraction of reads that target other processors' shared slices
     *  (producer-consumer communication; drives remote misses). */
    double sharedReadFrac = 0.3;
    /** Fraction of writes that go to the shared slices (the rest hit
     *  the private slice). */
    double sharedWriteFrac = 0.5;
    /** Number of distinct home directories the shared writes of one
     *  transaction scatter across; 0 means "all nodes" (radix). */
    std::uint32_t writeSpreadDirs = 1;
    /** Probability a transaction does a read-modify-write on a hot
     *  contended word (violations). */
    double conflictProb = 0.02;
    /** Number of hot contended words. */
    std::uint32_t hotWords = 128;

    // --- structure ------------------------------------------------------
    /** Barrier-separated phases. */
    std::uint32_t phases = 4;
    /** Total transactions per phase across all processors (fixed work:
     *  speedup = T1 / Tp). */
    std::uint32_t txnsPerPhase = 512;

    // --- footprints -----------------------------------------------------
    /** Private-slice size per processor, in words. */
    std::uint32_t privateWords = 1u << 15;
    /** Shared-slice size per processor, in words. */
    std::uint32_t sharedWords = 1u << 13;
    /** Fraction of private accesses confined to a hot working window
     *  (cache reuse). */
    double privateReuse = 0.9;
    /** Hot working-window size in words. */
    std::uint32_t privateWindow = 1u << 11;
};

/** The eleven applications of the paper's Table 3 (the registry
 *  builds them by name: see workload/registry.hh). */
const std::vector<AppProfile> &appProfiles();

/**
 * The transaction generator for one processor running one application.
 * Deterministic in (profile, seed, proc, numProcs); scaling runs keep
 * total work constant and divide transactions among processors.
 */
class SyntheticSource : public TransactionSource
{
  public:
    SyntheticSource(const AppProfile &profile, std::uint64_t seed,
                    NodeId proc, std::uint32_t num_procs);

    std::optional<Transaction> nextTransaction() override;

    /** Address-layout helpers shared with the setup code. */
    static Addr privateBase(NodeId proc);
    static Addr sharedBase(NodeId proc);
    static Addr hotBase();

    std::uint64_t generated() const { return txnsGenerated; }

  private:
    void emitReadRun(std::vector<TxOp> &ops, Addr base,
                     std::uint32_t pool_words, std::uint32_t words);
    void emitWriteRun(std::vector<TxOp> &ops, Addr base,
                      std::uint32_t pool_words, std::uint32_t words);

    AppProfile prof;
    Rng rng;
    NodeId nodeId;
    std::uint32_t numProcs;
    std::uint32_t myTxnsPerPhase;
    std::uint32_t phase = 0;
    std::uint32_t txnInPhase = 0;
    std::uint64_t txnsGenerated = 0;
};

} // namespace tcc

#endif // TCC_WORKLOAD_SYNTHETIC_APP_HH
