#include "tensor/scratch.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace ngb {

namespace {

constexpr size_t kAlign = 64;
constexpr size_t kMinBlock = size_t{1} << 20;  // 1 MiB

std::atomic<int64_t> g_global_high_water{0};
std::atomic<int64_t> g_global_high_water_sum{0};

/** This thread's share already folded into the cross-thread sum. */
thread_local int64_t t_sum_contribution = 0;

size_t
alignUp(size_t n)
{
    return (n + kAlign - 1) / kAlign * kAlign;
}

}  // namespace

ScratchArena &
ScratchArena::local()
{
    thread_local ScratchArena arena;
    return arena;
}

int64_t
ScratchArena::inUseBytes() const
{
    int64_t used = 0;
    for (size_t b = 0; b < cur_ && b < blocks_.size(); ++b)
        used += static_cast<int64_t>(blocks_[b]->bytes());
    return used + static_cast<int64_t>(off_);
}

int64_t
ScratchArena::reservedBytes() const
{
    int64_t total = 0;
    for (const auto &b : blocks_)
        total += static_cast<int64_t>(b->bytes());
    return total;
}

void
ScratchArena::reserve(int64_t bytes)
{
    const size_t want = alignUp(static_cast<size_t>(bytes));
    if (depth_ > 0 || bytes <= 0)
        return;
    for (const auto &b : blocks_)
        if (b->bytes() >= want)
            return;
    blocks_.clear();
    blocks_.push_back(std::make_shared<Storage>(want, /*zero=*/false));
    cur_ = 0;
    off_ = 0;
}

Tensor
ScratchArena::alloc(const Shape &shape, DType dtype)
{
    size_t bytes =
        alignUp(static_cast<size_t>(shape.numel()) * dtypeSize(dtype));
    // Advance through existing blocks; grow only when none fits.
    while (cur_ < blocks_.size() &&
           off_ + bytes > blocks_[cur_]->bytes()) {
        ++cur_;
        off_ = 0;
    }
    if (cur_ >= blocks_.size()) {
        size_t grow = std::max(
            {kMinBlock, bytes,
             blocks_.empty() ? size_t{0} : 2 * blocks_.back()->bytes()});
        blocks_.push_back(
            std::make_shared<Storage>(grow, /*zero=*/false));
        off_ = 0;
    }
    size_t at = off_;
    off_ += bytes;
    high_water_ = std::max(high_water_, inUseBytes());
    int64_t elem_offset =
        static_cast<int64_t>(at / dtypeSize(dtype));  // 64-aligned
    return Tensor(blocks_[cur_], shape, shape.contiguousStrides(),
                  elem_offset, dtype);
}

bool
ScratchArena::owns(const Tensor &t) const
{
    if (!t.defined())
        return false;
    const Storage *s = t.storage().get();
    for (const auto &b : blocks_)
        if (b.get() == s)
            return true;
    return false;
}

void
ScratchArena::reset(const Mark &m)
{
    if (Storage::poisonEnabled()) {
        // Repoison everything between the mark and the bump pointer so
        // an escaped scratch view reads garbage, not stale-but-right
        // data.
        for (size_t b = m.block; b <= cur_ && b < blocks_.size(); ++b) {
            size_t from = b == m.block ? m.offset : 0;
            size_t to = b == cur_ ? off_ : blocks_[b]->bytes();
            if (to > from)
                std::memset(blocks_[b]->raw() + from,
                            Storage::kPoisonByte, to - from);
        }
    }
    cur_ = m.block;
    off_ = m.offset;
}

int64_t
ScratchArena::globalHighWaterBytes()
{
    return g_global_high_water.load();
}

int64_t
ScratchArena::globalHighWaterSumBytes()
{
    return g_global_high_water_sum.load();
}

ScratchScope::ScratchScope()
{
    ScratchArena &a = ScratchArena::local();
    mark_ = a.mark();
    ++a.depth_;
}

ScratchScope::~ScratchScope()
{
    ScratchArena &a = ScratchArena::local();
    a.reset(mark_);
    --a.depth_;
    if (a.depth_ == 0) {
        atomicStoreMax(g_global_high_water, a.high_water_);
        // Fold only this thread's growth since its last contribution,
        // so the sum counts each worker's peak exactly once.
        if (a.high_water_ > t_sum_contribution) {
            g_global_high_water_sum.fetch_add(a.high_water_ -
                                              t_sum_contribution);
            t_sum_contribution = a.high_water_;
        }
    }
}

Tensor
scratchEmpty(const Shape &shape, DType dtype)
{
    ScratchArena &a = ScratchArena::local();
    return a.active() ? a.alloc(shape, dtype)
                      : Tensor::empty(shape, dtype);
}

bool
isScratch(const Tensor &t)
{
    return ScratchArena::local().owns(t);
}

Tensor
toContiguousF32(const Tensor &t)
{
    if (!t.defined() || (t.dtype() == DType::F32 && t.isContiguous()))
        return t;
    Tensor s = scratchEmpty(t.shape(), DType::F32);
    s.copyFrom(t);
    return s;
}

Tensor
toContiguous(const Tensor &t)
{
    if (!t.defined() || t.isContiguous())
        return t;
    Tensor s = scratchEmpty(t.shape(), t.dtype());
    s.copyFrom(t);
    return s;
}

}  // namespace ngb
