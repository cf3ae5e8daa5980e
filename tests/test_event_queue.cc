/**
 * @file
 * Unit tests for the discrete-event simulation kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace tcc {
namespace {

/// The wheel span: a delay of kW or more goes to the overflow heap.
constexpr Tick kW = EventQueue::kWindowTicks;

TEST(EventQueue, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&]() {
        ++fired;
        if (fired < 5)
            eq.schedule(2, chain);
    };
    eq.schedule(1, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.now(), 1u + 4 * 2u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

// Regression: a caller that time-slices the simulation must see now()
// advance to the slice limit even when later events remain queued
// (previously now() stuck at the last executed event between slices).
TEST(EventQueue, RunUntilAdvancesNowToLimitWithEventsPending)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(500, [&] { ++fired; });
    eq.runUntil(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_FALSE(eq.empty());

    // Relative scheduling between slices is anchored at the limit.
    eq.schedule(10, [&] { EXPECT_EQ(eq.now(), 110u); ++fired; });
    eq.runUntil(200);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 200u);

    // Events at exactly the limit still execute.
    eq.schedule(100, [&] { ++fired; });
    eq.runUntil(300);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 300u);

    eq.run();
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, RunUntilOnEmptyQueueAdvancesTime)
{
    EventQueue eq;
    EXPECT_EQ(eq.runUntil(42), 0u);
    EXPECT_EQ(eq.now(), 42u);
}

// Same-tick FIFO must hold when some events reach the tick through the
// far-future overflow heap and others through the near wheel (tick
// kW + 1000 is "far" when scheduled at tick 0, migrates into the wheel
// when the window slides to kW - 50, and is "near" when scheduled at
// tick kW + 900).
TEST(EventQueue, SameTickFifoAcrossWheelAndOverflowPaths)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick t = kW + 1000;
    for (int i = 0; i < 4; ++i)
        eq.scheduleAt(t, [&, i] { order.push_back(i); }); // overflow
    eq.scheduleAt(kW - 50, [&] {
        eq.scheduleAt(t - 100, [&] {
            for (int i = 4; i < 8; ++i)
                eq.scheduleAt(t, [&, i] { order.push_back(i); }); // wheel
        });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(eq.now(), t);
}

// The cursor sits in the last bitmap word and the next event is in
// word 0, so the search wraps. An earlier event left word 5 empty
// behind the cursor: its summary bit must be clear, or the search
// after the wrap would stop there instead of at word 10.
TEST(EventQueue, WrapFromLastBitmapWordToWordZero)
{
    EventQueue eq;
    std::vector<Tick> log;
    const auto rec = [&] { log.push_back(eq.now()); };
    eq.scheduleAt(5 * 64, [&] {           // word 5
        rec();
        eq.scheduleAt(kW - 10, [&] {       // word 63
            rec();
            eq.scheduleAt(kW + 700, rec);  // word 10, next revolution
            eq.scheduleAt(kW + 10, rec);   // word 0, next revolution
            EXPECT_EQ(eq.nextWhen(), kW + 10);
        });
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<Tick>{5 * 64, kW - 10, kW + 10, kW + 700}));
}

// With the cursor at bit 36 of word 1, the only pending event is at
// bit 6 of word 1: the cursor word's low bits, one revolution ahead.
TEST(EventQueue, OnlyEventInCursorWordLowBitsIsOneRevolutionAhead)
{
    EventQueue eq;
    std::vector<Tick> log;
    const auto rec = [&] { log.push_back(eq.now()); };
    eq.scheduleAt(100, [&] {
        rec();
        eq.scheduleAt(kW + 70, rec);
        EXPECT_EQ(eq.nextWhen(), kW + 70);
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<Tick>{100, kW + 70}));
}

// From the cursor, words above the cursor word come first, then the
// wrapped words from 0 up to and including the cursor word itself.
TEST(EventQueue, WordsAboveCursorRunBeforeWrappedWords)
{
    EventQueue eq;
    std::vector<Tick> log;
    const auto rec = [&] { log.push_back(eq.now()); };
    eq.scheduleAt(100, [&] {
        rec();
        eq.scheduleAt(kW + 70, rec); // cursor word, low bits
        eq.scheduleAt(kW + 5, rec);  // word 0, wrapped
        eq.scheduleAt(400, rec);     // word 6
        eq.scheduleAt(200, rec);     // word 3
        eq.scheduleAt(120, rec);     // cursor word, high bits
    });
    eq.run();
    EXPECT_EQ(log, (std::vector<Tick>{100, 120, 200, 400, kW + 5, kW + 70}));
}

// windowStart + kW - 1 is the wheel's last bucket; windowStart + kW
// maps to the cursor's own bucket and must go to the overflow heap, to
// run after it. A same-tick event scheduled once the window covers it
// queues behind the migrated one.
TEST(EventQueue, WindowEdgeSplitsWheelFromOverflow)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(100, [&] {
        eq.schedule(kW, [&] { order.push_back(1); });
        eq.schedule(kW - 1, [&] {
            order.push_back(0);
            eq.schedule(1, [&] { order.push_back(2); });
        });
        EXPECT_EQ(eq.nextWhen(), 100 + kW - 1);
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), 100 + kW);
}

// Property test: under a random mix of near (wheel) and far (overflow)
// delays, events execute in exactly (when, scheduling-order) order.
TEST(EventQueue, PropertyRandomDelaysExecuteInScheduleOrder)
{
    Rng rng(2024);
    EventQueue eq;
    struct Rec {
        Tick when;
        int id;
    };
    std::vector<Rec> expected;
    std::vector<int> executed;
    int nextId = 0;

    // Seed events from the outside, then more from inside callbacks.
    std::function<void(int)> fire = [&](int id) {
        executed.push_back(id);
        if (nextId < 3000 && rng.below(2) == 0) {
            const int n = 1 + static_cast<int>(rng.below(3));
            for (int i = 0; i < n; ++i) {
                const Tick d = rng.below(16) == 0
                                   ? kW - 56 + rng.below(2 * kW) // far
                                   : rng.below(120);             // near
                const int id2 = nextId++;
                expected.push_back({eq.now() + d, id2});
                eq.schedule(d, [&fire, id2] { fire(id2); });
            }
        }
    };
    for (int i = 0; i < 200; ++i) {
        const Tick d = rng.below(4) == 0 ? kW + rng.below(3 * kW)
                                         : rng.below(kW);
        const int id = nextId++;
        expected.push_back({d, id});
        eq.scheduleAt(d, [&fire, id] { fire(id); });
    }
    eq.run();

    // Stable sort by when == the exact required execution order, since
    // ids are assigned in scheduling order.
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Rec &a, const Rec &b) {
                         return a.when < b.when;
                     });
    ASSERT_EQ(executed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        ASSERT_EQ(executed[i], expected[i].id) << "at position " << i;
}

// The steady state must not allocate: once the pending-event
// population has hit its high-water mark, the node slab count stays
// fixed no matter how many more events flow through.
TEST(EventQueue, SteadyStateReusesNodes)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 50000)
            eq.schedule(1 + fired % 97, chain);
    };
    for (int i = 0; i < 32; ++i)
        eq.schedule(i, chain);
    eq.runUntil(2000); // warm up past the high-water mark
    const std::size_t cap = eq.nodeCapacity();
    EXPECT_GT(cap, 0u);
    eq.run();
    EXPECT_EQ(eq.nodeCapacity(), cap);
    EXPECT_GE(fired, 50000u);
}

TEST(EventQueue, PendingCountsWheelAndOverflow)
{
    EventQueue eq;
    eq.schedule(1, [] {});    // wheel
    eq.schedule(2 * kW, [] {}); // overflow
    EXPECT_EQ(eq.pending(), 2u);
    eq.step();
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 2 * kW);
}

TEST(InlineFunction, SmallCapturesStayInline)
{
    int x = 0;
    auto small = [&x] { x = 5; };
    // A capture past the buffer is rejected at compile time.
    auto big = [x, pad = std::array<char, 64>{}] { (void)x, (void)pad; };
    static_assert(InlineFunction<48>::fitsInline<decltype(small)>);
    static_assert(!InlineFunction<48>::fitsInline<decltype(big)>);
    InlineFunction<48> f(small);
    f();
    EXPECT_EQ(x, 5);
}

TEST(InlineFunction, MoveTransfersAndResetDestroys)
{
    auto counter = std::make_shared<int>(0);
    InlineFunction<48> a([counter] { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);

    InlineFunction<48> b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_EQ(counter.use_count(), 2); // moved, not copied
    b();
    EXPECT_EQ(*counter, 1);

    b.reset();
    EXPECT_FALSE(static_cast<bool>(b));
    EXPECT_EQ(counter.use_count(), 1); // capture destroyed
}

TEST(EventQueue, ZeroDelayRunsAtCurrentTick)
{
    EventQueue eq;
    Tick seen = 12345;
    eq.schedule(7, [&] {
        eq.schedule(0, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 10u);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.below(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(Rng, UniformIsInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, LogNormalMedianRoughlyCorrect)
{
    Rng r(11);
    std::vector<double> v;
    for (int i = 0; i < 20001; ++i)
        v.push_back(r.logNormal(100.0, 0.5));
    std::sort(v.begin(), v.end());
    EXPECT_NEAR(v[10000], 100.0, 10.0);
}

TEST(Distribution, PercentilesAndMean)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.sample(i);
    EXPECT_DOUBLE_EQ(d.mean(), 50.5);
    EXPECT_NEAR(d.percentile(90), 90.0, 1.0);
    EXPECT_NEAR(d.percentile(50), 50.0, 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
    EXPECT_EQ(d.count(), 100u);
}

TEST(Distribution, EmptyIsZero)
{
    Distribution d;
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(90), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
}

TEST(Distribution, SampleAfterPercentileQuery)
{
    Distribution d;
    d.sample(5);
    EXPECT_DOUBLE_EQ(d.percentile(50), 5.0);
    d.sample(100);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
}

TEST(Distribution, MinAndStddev)
{
    Distribution d;
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
    d.sample(7);
    EXPECT_DOUBLE_EQ(d.min(), 7.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0); // < 2 samples
    d.sample(3);
    d.sample(11);
    EXPECT_DOUBLE_EQ(d.min(), 3.0);
    // Population stddev of {7, 3, 11}: mean 7, variance 32/3.
    EXPECT_NEAR(d.stddev(), std::sqrt(32.0 / 3.0), 1e-12);
}

TEST(Distribution, PercentileCacheInvalidation)
{
    // The sorted cache must be rebuilt after every mutation path:
    // sample(), merge(), and reset().
    Distribution d;
    for (int i = 1; i <= 10; ++i)
        d.sample(i);
    EXPECT_DOUBLE_EQ(d.percentile(100), 10.0); // cache built here
    d.sample(1000);
    EXPECT_DOUBLE_EQ(d.percentile(100), 1000.0);

    Distribution other;
    other.sample(-5);
    d.merge(other);
    EXPECT_DOUBLE_EQ(d.percentile(0), -5.0);
    EXPECT_DOUBLE_EQ(d.min(), -5.0);

    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.percentile(50), 0.0);
    d.sample(42);
    EXPECT_DOUBLE_EQ(d.percentile(50), 42.0);
}

} // namespace
} // namespace tcc
