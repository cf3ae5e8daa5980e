/**
 * @file
 * InlineFunction: a move-only, small-buffer-optimized alternative to
 * std::function<void()> for the simulation hot path. Callables whose
 * captures fit the inline buffer (and are nothrow-move-constructible)
 * are stored in place, so scheduling an event performs no heap
 * allocation; a callable that does not fit fails to compile.
 *
 * libstdc++'s std::function inlines only ~16 bytes of capture, which
 * means almost every simulator callback ([this, msg], [this, gen], ...)
 * allocates. The event queue's steady state must be allocation-free,
 * hence this type.
 */

#ifndef TCC_SIM_INLINE_FUNCTION_HH
#define TCC_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tcc {

/**
 * Move-only callable with @p Capacity bytes of inline storage.
 * Only the void() signature is supported (all simulator events are
 * nullary; results flow through captured state).
 */
template <std::size_t Capacity = 48>
class InlineFunction
{
  public:
    InlineFunction() noexcept = default;

    ~InlineFunction() { reset(); }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    /** Wrap any callable object (lambda, std::function, ...). */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    InlineFunction(F &&f)
    {
        emplace(std::forward<F>(f));
    }

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    InlineFunction &
    operator=(F &&f)
    {
        reset();
        emplace(std::forward<F>(f));
        return *this;
    }

    /** Invoke. Undefined if empty (the event queue never stores an
     *  empty callback). */
    void operator()() { ops->invoke(storage); }

    explicit operator bool() const noexcept { return ops != nullptr; }

    /** Destroy the held callable, leaving the function empty. */
    void
    reset() noexcept
    {
        if (ops) {
            ops->destroy(storage);
            ops = nullptr;
        }
    }

    static constexpr std::size_t capacity() { return Capacity; }

    /** True iff a callable of type @p Fn fits the buffer. emplace()
     *  static_asserts it, so a capture that outgrows the buffer fails
     *  to compile instead of silently allocating. */
    template <typename Fn>
    static constexpr bool fitsInline =
        sizeof(Fn) <= Capacity &&
        alignof(Fn) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<Fn>;

  private:
    struct Ops {
        void (*invoke)(void *);
        void (*destroy)(void *) noexcept;
        /** Move the callable from @p src storage into @p dst storage
         *  and destroy the source. */
        void (*relocate)(void *dst, void *src) noexcept;
    };

    template <typename Fn>
    static const Ops *
    inlineOps()
    {
        static constexpr Ops ops = {
            [](void *s) { (*std::launder(reinterpret_cast<Fn *>(s)))(); },
            [](void *s) noexcept {
                std::launder(reinterpret_cast<Fn *>(s))->~Fn();
            },
            [](void *dst, void *src) noexcept {
                Fn *from = std::launder(reinterpret_cast<Fn *>(src));
                ::new (dst) Fn(std::move(*from));
                from->~Fn();
            },
        };
        return &ops;
    }

    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(fitsInline<Fn>,
                      "callable too large (or not nothrow-movable) for "
                      "the inline buffer");
        ::new (static_cast<void *>(storage)) Fn(std::forward<F>(f));
        ops = inlineOps<Fn>();
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        ops = other.ops;
        if (ops) {
            ops->relocate(storage, other.storage);
            other.ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage[Capacity];
    const Ops *ops = nullptr;
};

} // namespace tcc

#endif // TCC_SIM_INLINE_FUNCTION_HH
