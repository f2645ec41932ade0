#include "runtime/arena.h"

#include <atomic>
#include <cstring>
#include <stdexcept>

namespace ngb {

std::shared_ptr<Storage>
ArenaPool::acquire()
{
    if (bytes_ <= 0)
        throw std::runtime_error("ArenaPool: not configured");
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &b : blocks_) {
        if (b.use_count() == 1) {
            // The dropping thread's final reference release is a
            // release operation on the control block; this fence
            // completes the happens-before edge so the old request's
            // writes to the block are visible before it is reused.
            std::atomic_thread_fence(std::memory_order_acquire);
            if (Storage::poisonEnabled())
                std::memset(b->raw(), Storage::kPoisonByte, b->bytes());
            return b;
        }
    }
    blocks_.push_back(std::make_shared<Storage>(
        static_cast<size_t>(bytes_), /*zero=*/false));
    return blocks_.back();
}

size_t
ArenaPool::blocks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return blocks_.size();
}

ArenaAllocator::ArenaAllocator(const MemoryPlan &plan,
                               std::shared_ptr<Storage> block)
    : plan_(plan), block_(std::move(block))
{
}

Tensor
ArenaAllocator::allocate(const Node &n, size_t i)
{
    const TensorPlacement *p =
        block_ ? plan_.find({n.id, static_cast<int>(i)}) : nullptr;
    if (!p) {
        fallbacks_.fetch_add(1);
        return Tensor::empty(n.outShapes[i], n.outDtypes[i]);
    }
    DType dt = n.outDtypes[i];
    int64_t end = p->offset + p->bytes;
    if (end > static_cast<int64_t>(block_->bytes()))
        throw std::runtime_error("ArenaAllocator: placement beyond block");
    atomicStoreMax(bound_peak_, end);
    planned_.fetch_add(1);
    // Offsets are 64-byte aligned, so the element conversion is exact.
    return Tensor(block_, n.outShapes[i],
                  n.outShapes[i].contiguousStrides(),
                  p->offset / static_cast<int64_t>(dtypeSize(dt)), dt);
}

int64_t
ArenaAllocator::plannedOffset(const Node &n, size_t i) const
{
    const TensorPlacement *p =
        block_ ? plan_.find({n.id, static_cast<int>(i)}) : nullptr;
    return p ? p->offset : -1;
}

}  // namespace ngb
