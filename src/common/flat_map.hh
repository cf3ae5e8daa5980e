/**
 * @file
 * Open-addressing hash containers for the simulator's per-event hot
 * paths. The standard library's node-based `std::unordered_map` costs
 * one cache-missing pointer chase per lookup plus one allocation per
 * insert; on paths executed once per simulated event (directory entry
 * lookup, functional memory reads, the commit engine's per-directory
 * bookkeeping) that dominates the instruction budget. FlatMap stores
 * slots contiguously and resolves collisions with robin-hood linear
 * probing:
 *
 *  - power-of-two capacity, index = mix(key) & mask (the multiplicative
 *    mixer breaks up the simulator's highly regular address keys);
 *  - one byte of metadata per slot holding probe-distance + 1 (0 means
 *    empty), kept in a separate array so probing scans a dense byte
 *    stream instead of striding over whole slots;
 *  - robin-hood insertion (the probe steals the slot of any entry
 *    closer to home), which bounds the variance of probe lengths;
 *  - tombstone-free backward-shift erase: removal shifts the following
 *    displacement chain back one slot, so lookups never scan over
 *    deleted ghosts and the table never degrades with churn.
 *
 * The API mirrors the subset of `std::unordered_map` the simulator
 * uses (find / end / operator[] / emplace / erase / clear / reserve /
 * size / count / contains / iteration), so call sites swap with a type
 * change only. Iteration order is the table's slot order - unspecified,
 * like the standard containers; code whose *behaviour* depends on
 * ordering (e.g. message emission) must iterate over a sorted external
 * structure instead.
 *
 * clear() keeps the slot arrays, so per-transaction state that is
 * cleared and refilled every attempt (the processor's write buffer and
 * commit-tracking sets) performs no steady-state allocation, matching
 * the event kernel's allocation-free design (DESIGN.md section 7).
 */

#ifndef TCC_COMMON_FLAT_MAP_HH
#define TCC_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/arena.hh"

namespace tcc {

namespace detail {

/** Finalizer of splitmix64: full-avalanche mix for integer keys. */
inline std::uint64_t
mixBits(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/** Default hash: bit-mix integral keys, fall back to std::hash. */
template <typename K>
struct FlatHash {
    std::size_t
    operator()(const K &k) const
    {
        if constexpr (std::is_integral_v<K> || std::is_enum_v<K>) {
            return static_cast<std::size_t>(
                mixBits(static_cast<std::uint64_t>(k)));
        } else {
            return mixBits(std::hash<K>{}(k));
        }
    }
};

} // namespace detail

/**
 * Robin-hood open-addressing hash map. Keys and mapped values must be
 * movable; references and iterators are invalidated by any mutation
 * (insert may rehash, erase backward-shifts).
 */
template <typename K, typename V,
          typename Hash = detail::FlatHash<K>>
class FlatMap
{
  public:
    /** Slot layout: named first/second so structured bindings and
     *  `it->second` read like the standard container. */
    struct Slot {
        K first{};
        V second{};
    };

    FlatMap() = default;

    explicit FlatMap(std::size_t expected) { reserve(expected); }

    /** Back the table with @p arena (nullptr = global heap). */
    explicit FlatMap(Arena *arena)
        : slots(ArenaAllocator<Slot>(arena)),
          meta(ArenaAllocator<std::uint8_t>(arena))
    {}

    FlatMap(Arena *arena, std::size_t expected) : FlatMap(arena)
    {
        reserve(expected);
    }

    std::size_t size() const { return used; }
    bool empty() const { return used == 0; }

    /** Grow so @p expected entries fit without rehashing. */
    void
    reserve(std::size_t expected)
    {
        std::size_t want = kMinCapacity;
        // Grow while the load factor at `expected` would exceed 7/8.
        while (expected * 8 > want * 7)
            want <<= 1;
        if (want > capacity())
            rehash(want);
    }

    /** Remove every entry; keeps the allocated table. */
    void
    clear()
    {
        if (used == 0)
            return;
        // Reset occupied slots of heavy V (vectors) so their memory is
        // released now rather than held until overwrite. Trivial slots
        // stay as they are: insertion overwrites a slot before its
        // metadata marks it occupied.
        if constexpr (!std::is_trivially_destructible_v<Slot>) {
            for (std::size_t i = 0; i < meta.size(); ++i)
                if (meta[i] != 0)
                    slots[i] = Slot{};
        }
        std::fill(meta.begin(), meta.end(), std::uint8_t{0});
        used = 0;
    }

    // --- iteration (slot order; unspecified like unordered_map) ------
    template <bool Const>
    class Iter
    {
        using Owner = std::conditional_t<Const, const FlatMap, FlatMap>;
        using Ref = std::conditional_t<Const, const Slot &, Slot &>;
        using Ptr = std::conditional_t<Const, const Slot *, Slot *>;

      public:
        Iter() = default;
        Iter(Owner *m, std::size_t i) : owner(m), idx(i) { skipEmpty(); }

        Ref operator*() const { return owner->slots[idx]; }
        Ptr operator->() const { return &owner->slots[idx]; }

        Iter &
        operator++()
        {
            ++idx;
            skipEmpty();
            return *this;
        }

        bool
        operator==(const Iter &o) const
        {
            return idx == o.idx;
        }
        bool
        operator!=(const Iter &o) const
        {
            return idx != o.idx;
        }

        /** Const iterators compare against mutable ones (find/end mix). */
        template <bool C2>
        bool
        operator==(const Iter<C2> &o) const
        {
            return idx == o.index();
        }

        std::size_t index() const { return idx; }

      private:
        void
        skipEmpty()
        {
            while (owner && idx < owner->meta.size() &&
                   owner->meta[idx] == 0)
                ++idx;
        }

        Owner *owner = nullptr;
        std::size_t idx = 0;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, meta.size()); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const
    {
        return const_iterator(this, meta.size());
    }

    // --- lookup -------------------------------------------------------
    iterator
    find(const K &key)
    {
        const std::size_t i = findIndex(key);
        return i == kNotFound ? end() : iterator(this, i);
    }

    const_iterator
    find(const K &key) const
    {
        const std::size_t i = findIndex(key);
        return i == kNotFound ? end() : const_iterator(this, i);
    }

    bool contains(const K &key) const { return findIndex(key) != kNotFound; }
    std::size_t count(const K &key) const { return contains(key) ? 1 : 0; }

    V &
    operator[](const K &key)
    {
        return slots[insertIndex(key)].second;
    }

    /** emplace-like insert: default-construct the value if absent.
     *  @return (iterator, inserted). Extra construction args are
     *  assigned into the value on first insertion. */
    template <typename... Args>
    std::pair<iterator, bool>
    emplace(const K &key, Args &&...args)
    {
        const std::size_t before = used;
        const std::size_t i = insertIndex(key);
        const bool inserted = used != before;
        if (inserted && sizeof...(Args) > 0)
            slots[i].second = V(std::forward<Args>(args)...);
        return {iterator(this, i), inserted};
    }

    std::pair<iterator, bool>
    insert(const std::pair<K, V> &kv)
    {
        const std::size_t before = used;
        const std::size_t i = insertIndex(kv.first);
        const bool inserted = used != before;
        if (inserted)
            slots[i].second = kv.second;
        return {iterator(this, i), inserted};
    }

    // --- erase (tombstone-free backward shift) -----------------------
    std::size_t
    erase(const K &key)
    {
        const std::size_t i = findIndex(key);
        if (i == kNotFound)
            return 0;
        eraseAt(i);
        return 1;
    }

    iterator
    erase(iterator it)
    {
        eraseAt(it.index());
        // After a backward shift the same index holds the next element
        // (or a hole the iterator skips over).
        return iterator(this, it.index());
    }

  private:
    static constexpr std::size_t kMinCapacity = 16;
    static constexpr std::size_t kNotFound =
        static_cast<std::size_t>(-1);

    std::size_t capacity() const { return meta.size(); }

    std::size_t
    homeOf(const K &key) const
    {
        return Hash{}(key) & (capacity() - 1);
    }

    /** Index of @p key's slot, or kNotFound. The probe stops early at
     *  any slot whose resident is closer to home than the probe is
     *  long - the robin-hood invariant guarantees the key cannot be
     *  further down the chain. */
    std::size_t
    findIndex(const K &key) const
    {
        if (used == 0)
            return kNotFound;
        const std::size_t mask = capacity() - 1;
        std::size_t i = homeOf(key);
        std::uint8_t dist = 1;
        while (true) {
            const std::uint8_t m = meta[i];
            if (m == 0 || m < dist)
                return kNotFound;
            if (m == dist && slots[i].first == key)
                return i;
            i = (i + 1) & mask;
            ++dist;
        }
    }

    /** Slot index for @p key, inserting a default-constructed value if
     *  absent (robin-hood displacement on the way). */
    std::size_t
    insertIndex(const K &key)
    {
        if (capacity() == 0 || (used + 1) * 8 > capacity() * 7)
            rehash(capacity() ? capacity() * 2 : kMinCapacity);

        const std::size_t mask = capacity() - 1;
        std::size_t i = homeOf(key);
        std::uint8_t dist = 1;
        K k = key;
        V v{};
        std::size_t result = kNotFound;
        while (true) {
            std::uint8_t &m = meta[i];
            if (m == 0) {
                slots[i].first = std::move(k);
                slots[i].second = std::move(v);
                m = dist;
                ++used;
                return result == kNotFound ? i : result;
            }
            if (result == kNotFound && m == dist &&
                slots[i].first == key)
                return i; // already present
            if (m < dist) {
                // Rich entry found: steal the slot, carry the evictee.
                std::swap(slots[i].first, k);
                std::swap(slots[i].second, v);
                std::swap(m, dist);
                if (result == kNotFound)
                    result = i; // the key now lives here
            }
            i = (i + 1) & mask;
            ++dist;
            if (dist == 0) {
                // Probe-distance byte overflow (pathological clustering):
                // grow and restart with the carried entry included.
                rehashWith(capacity() * 2, std::move(k), std::move(v));
                return findIndex(key);
            }
        }
    }

    void
    eraseAt(std::size_t i)
    {
        const std::size_t mask = capacity() - 1;
        // Shift the following displacement chain back one slot until a
        // hole or an at-home entry terminates it.
        std::size_t next = (i + 1) & mask;
        while (meta[next] > 1) {
            slots[i] = std::move(slots[next]);
            meta[i] = static_cast<std::uint8_t>(meta[next] - 1);
            i = next;
            next = (next + 1) & mask;
        }
        slots[i] = Slot{};
        meta[i] = 0;
        --used;
    }

    void
    rehash(std::size_t new_cap)
    {
        // Move-construction carries the (possibly arena-backed)
        // allocator into the temporaries; assign() reuses the
        // moved-from vectors' allocators, so the table stays in its
        // arena across growth.
        SlotVec old_slots = std::move(slots);
        MetaVec old_meta = std::move(meta);
        slots.assign(new_cap, Slot{});
        meta.assign(new_cap, 0);
        used = 0;
        for (std::size_t i = 0; i < old_meta.size(); ++i) {
            if (old_meta[i] == 0)
                continue;
            const std::size_t at = insertIndex(old_slots[i].first);
            slots[at].second = std::move(old_slots[i].second);
        }
    }

    void
    rehashWith(std::size_t new_cap, K k, V v)
    {
        rehash(new_cap);
        const std::size_t at = insertIndex(k);
        slots[at].second = std::move(v);
    }

    using SlotVec = std::vector<Slot, ArenaAllocator<Slot>>;
    using MetaVec = std::vector<std::uint8_t,
                                ArenaAllocator<std::uint8_t>>;

    SlotVec slots;
    MetaVec meta;
    std::size_t used = 0;
};

} // namespace tcc

#endif // TCC_COMMON_FLAT_MAP_HH
