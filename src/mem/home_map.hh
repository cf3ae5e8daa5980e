/**
 * @file
 * Address-to-home-node mapping. The paper uses a first-touch policy to
 * map virtual pages to node memories; we implement that plus a static
 * page-interleaved fallback for controlled experiments.
 */

#ifndef TCC_MEM_HOME_MAP_HH
#define TCC_MEM_HOME_MAP_HH

#include <cstdint>

#include "common/flat_map.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace tcc {

/**
 * Maps line addresses to home nodes (the node whose directory and
 * memory slice own the line).
 */
class HomeMap
{
  public:
    HomeMap(std::uint32_t num_nodes, HomePolicy policy,
            std::uint32_t page_bytes = 4096, Arena *arena = nullptr)
        : numNodes(num_nodes), homePolicy(policy),
          pageBytes(page_bytes), firstTouch(arena)
    {
        if (num_nodes == 0)
            fatal("HomeMap needs at least one node");
        if ((page_bytes & (page_bytes - 1)) != 0)
            fatal("page size must be a power of two");
    }

    /**
     * Home node of @p addr. Under FirstTouch, the first call for a page
     * binds it to @p toucher; later calls ignore @p toucher.
     */
    NodeId
    homeOf(Addr addr, NodeId toucher)
    {
        const Addr page = addr / pageBytes;
        if (homePolicy == HomePolicy::Interleave)
            return static_cast<NodeId>(page % numNodes);
        auto it = firstTouch.find(page);
        if (it != firstTouch.end())
            return it->second;
        const NodeId home =
            toucher < numNodes
                ? toucher
                : static_cast<NodeId>(page % numNodes);
        firstTouch.emplace(page, home);
        return home;
    }

    /**
     * Home of an already-mapped address (panics under FirstTouch if the
     * page was never touched - indicates a protocol bug where a reply
     * precedes any request).
     */
    NodeId
    homeOf(Addr addr) const
    {
        const Addr page = addr / pageBytes;
        if (homePolicy == HomePolicy::Interleave)
            return static_cast<NodeId>(page % numNodes);
        auto it = firstTouch.find(page);
        if (it == firstTouch.end())
            panic("homeOf on untouched page %llx",
                  (unsigned long long)page);
        return it->second;
    }

    /**
     * Explicitly place the page containing @p addr at @p home,
     * overriding first-touch (models OS page placement done by the
     * workload's initialization phase). No-op under Interleave.
     */
    void
    bind(Addr addr, NodeId home)
    {
        if (homePolicy == HomePolicy::Interleave)
            return;
        firstTouch[addr / pageBytes] = home % numNodes;
        ++bindCount;
    }

    HomePolicy policy() const { return homePolicy; }
    std::uint32_t pageSize() const { return pageBytes; }

    /** Number of FirstTouch bind() calls so far. A caller memoizing
     *  homeOf() answers keeps them only while this is unchanged:
     *  bind() is the one way a page's home moves. */
    std::uint64_t epoch() const { return bindCount; }

  private:
    std::uint32_t numNodes;
    HomePolicy homePolicy;
    std::uint32_t pageBytes;
    /** homeOf() runs once per simulated access: keep it flat. */
    FlatMap<Addr, NodeId> firstTouch;
    std::uint64_t bindCount = 0;
};

} // namespace tcc

#endif // TCC_MEM_HOME_MAP_HH
