/**
 * @file
 * Bank example: concurrent transfers between accounts, the canonical
 * atomicity demo. Each transfer is one transaction (read both
 * balances, debit one, credit the other); the invariant is that the
 * total balance is conserved no matter how transfers conflict.
 *
 * Also demonstrates livelock-freedom under heavy contention: a few
 * "hot" accounts receive most transfers, yet every transfer commits.
 */

#include <cstdio>
#include <vector>

#include "core/system.hh"
#include "obs/contention.hh"
#include "sim/random.hh"
#include "workload/scripted_source.hh"

using namespace tcc;

namespace {

constexpr std::uint32_t kProcs = 16;
constexpr std::uint32_t kAccounts = 64;
constexpr std::uint32_t kHotAccounts = 4; // most transfers hit these
constexpr std::uint32_t kTransfersPerProc = 40;
constexpr std::uint64_t kInitialBalance = 1000;

Addr
account(std::uint32_t idx)
{
    // Spread accounts across the machine, one page apart, so their
    // home directories differ (parallel commit across directories).
    return 0x80000000ull + static_cast<Addr>(idx) * 4096;
}

ScriptedSource
makeTeller(NodeId proc, std::uint64_t seed)
{
    Rng rng(seed * 131 + proc);
    ScriptedSource src;
    for (std::uint32_t t = 0; t < kTransfersPerProc; ++t) {
        // Pick two distinct accounts, biased toward the hot set.
        auto pick = [&]() -> std::uint32_t {
            if (rng.chance(0.7))
                return static_cast<std::uint32_t>(
                    rng.below(kHotAccounts));
            return static_cast<std::uint32_t>(rng.below(kAccounts));
        };
        std::uint32_t from = pick();
        std::uint32_t to = pick();
        while (to == from)
            to = static_cast<std::uint32_t>(rng.below(kAccounts));
        const std::uint64_t amount = 1 + rng.below(10);

        // One atomic transfer: balance checks and both updates.
        src.add({
            TxOp::compute(20),
            TxOp::load(account(from)),
            TxOp::storeAdd(account(from),
                           static_cast<std::uint64_t>(-amount)),
            TxOp::load(account(to)),
            TxOp::storeAdd(account(to), amount),
        });
    }
    return src;
}

} // namespace

int
main()
{
    SystemConfig cfg;
    cfg.numProcs = kProcs;
    cfg.check.serial = true;
    // One profiler slot per account: the table never evicts, so its
    // abort counts are exact.
    cfg.trace.contentionTopK = kAccounts;
    System sys(cfg);

    for (std::uint32_t a = 0; a < kAccounts; ++a)
        sys.initializeWord(account(a), kInitialBalance);

    std::vector<ScriptedSource> tellers;
    tellers.reserve(kProcs);
    for (NodeId p = 0; p < kProcs; ++p)
        tellers.push_back(makeTeller(p, 7));
    for (NodeId p = 0; p < kProcs; ++p)
        sys.setSource(p, &tellers[p]);

    const RunResult res = sys.run();
    std::printf("completed: %s in %llu cycles\n",
                res.completed ? "yes" : "NO",
                (unsigned long long)res.cycles);

    // Conservation invariant.
    std::uint64_t total = 0;
    for (std::uint32_t a = 0; a < kAccounts; ++a)
        total += sys.memory().read(account(a));
    const std::uint64_t expected =
        static_cast<std::uint64_t>(kAccounts) * kInitialBalance;
    std::printf("total balance: %llu (expected %llu) -> %s\n",
                (unsigned long long)total,
                (unsigned long long)expected,
                total == expected ? "CONSERVED" : "LOST MONEY");

    std::printf("transfers committed: %llu, conflicts retried: %llu "
                "(livelock-free, no contention manager)\n",
                (unsigned long long)res.committedTxns,
                (unsigned long long)res.violations);

    // TAPE-style conflict profiling: which accounts cause the retries?
    std::puts("conflict hotspots (TAPE-style):");
    for (const auto &h : sys.contentionProfiler()->topAborts(5)) {
        const auto idx = (h.addr - account(0)) / 4096; // account index
        std::printf("  account %llu: %llu violations%s\n",
                    (unsigned long long)idx,
                    (unsigned long long)h.s.aborts,
                    idx < kHotAccounts ? "  <- hot account" : "");
    }

    std::printf("serializability check: %s\n",
                res.serial.ok ? "PASS" : res.serial.error.c_str());
    return (res.serial.ok && total == expected) ? 0 : 1;
}
