#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <random>
#include <stdexcept>

#include "platform/env.h"

namespace ngb {

namespace {

// Process-wide owning-storage accounting. Atomics, not a lock: the
// counters sit on every kernel-output allocation.
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_live_bytes{0};

// -1 = read $NGB_POISON on first use; 0/1 = explicit.
std::atomic<int> g_poison{-1};

void
bumpLive(int64_t delta)
{
    int64_t live = g_live_bytes.fetch_add(delta) + delta;
    if (delta > 0)
        atomicStoreMax(g_peak_live_bytes, live);
}

}  // namespace

Storage::Storage(size_t bytes, bool zero)
    : owned_(zero ? new uint8_t[bytes]() : new uint8_t[bytes]),
      data_(owned_.get()),
      bytes_(bytes)
{
    if (!zero && poisonEnabled())
        std::memset(data_, kPoisonByte, bytes_);
    g_alloc_count.fetch_add(1);
    g_alloc_bytes.fetch_add(bytes_);
    bumpLive(static_cast<int64_t>(bytes_));
}

Storage::Storage(void *data, size_t bytes)
    : data_(static_cast<uint8_t *>(data)), bytes_(bytes)
{
}

Storage::~Storage()
{
    if (owned_)
        bumpLive(-static_cast<int64_t>(bytes_));
}

uint64_t
Storage::heapAllocCount()
{
    return g_alloc_count.load();
}

uint64_t
Storage::heapAllocBytes()
{
    return g_alloc_bytes.load();
}

int64_t
Storage::liveBytes()
{
    return g_live_bytes.load();
}

int64_t
Storage::peakLiveBytes()
{
    return g_peak_live_bytes.load();
}

void
Storage::resetPeakLiveBytes()
{
    g_peak_live_bytes.store(g_live_bytes.load());
}

bool
Storage::poisonEnabled()
{
    int state = g_poison.load();
    if (state < 0) {
        state = platform::envFlag("NGB_POISON") ? 1 : 0;
        g_poison.store(state);
    }
    return state == 1;
}

void
Storage::setPoison(bool on)
{
    g_poison.store(on ? 1 : 0);
}

Tensor::Tensor(Shape shape, DType dtype)
    : storage_(std::make_shared<Storage>(
          static_cast<size_t>(shape.numel()) * dtypeSize(dtype))),
      shape_(std::move(shape)),
      strides_(shape_.contiguousStrides()),
      offset_(0),
      dtype_(dtype)
{
}

Tensor::Tensor(std::shared_ptr<Storage> storage, Shape shape,
               std::vector<int64_t> strides, int64_t offset, DType dtype)
    : storage_(std::move(storage)),
      shape_(std::move(shape)),
      strides_(std::move(strides)),
      offset_(offset),
      dtype_(dtype)
{
}

Tensor
Tensor::empty(const Shape &shape, DType dtype)
{
    Tensor t;
    t.storage_ = std::make_shared<Storage>(
        static_cast<size_t>(shape.numel()) * dtypeSize(dtype),
        /*zero=*/false);
    t.shape_ = shape;
    t.strides_ = shape.contiguousStrides();
    t.offset_ = 0;
    t.dtype_ = dtype;
    return t;
}

Tensor
Tensor::fromExternal(void *data, const Shape &shape, DType dtype)
{
    Tensor t;
    t.storage_ = std::make_shared<Storage>(
        data, static_cast<size_t>(shape.numel()) * dtypeSize(dtype));
    t.shape_ = shape;
    t.strides_ = shape.contiguousStrides();
    t.offset_ = 0;
    t.dtype_ = dtype;
    return t;
}

Tensor
Tensor::zeros(const Shape &shape, DType dtype)
{
    return Tensor(shape, dtype);
}

Tensor
Tensor::full(const Shape &shape, float value, DType dtype)
{
    Tensor t = empty(shape, dtype);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.flatSet(i, value);
    return t;
}

Tensor
Tensor::randn(const Shape &shape, uint64_t seed, float std)
{
    Tensor t = empty(shape, DType::F32);
    std::mt19937_64 rng(seed);
    std::normal_distribution<float> dist(0.0f, std);
    float *p = t.dataF32();
    for (int64_t i = 0; i < t.numel(); ++i)
        p[i] = dist(rng);
    return t;
}

Tensor
Tensor::arange(const Shape &shape, float step)
{
    Tensor t = empty(shape, DType::F32);
    float *p = t.dataF32();
    for (int64_t i = 0; i < t.numel(); ++i)
        p[i] = static_cast<float>(i) * step;
    return t;
}

bool
Tensor::isContiguous() const
{
    return strides_ == shape_.contiguousStrides();
}

int64_t
Tensor::elementIndex(const std::vector<int64_t> &idx) const
{
    assert(idx.size() == shape_.rank());
    int64_t e = offset_;
    for (size_t i = 0; i < idx.size(); ++i) {
        assert(idx[i] >= 0 && idx[i] < shape_[i]);
        e += idx[i] * strides_[i];
    }
    return e;
}

int64_t
Tensor::flatToElementIndex(int64_t i) const
{
    int64_t e = offset_;
    for (int d = static_cast<int>(shape_.rank()) - 1; d >= 0; --d) {
        size_t du = static_cast<size_t>(d);
        int64_t extent = shape_[du];
        e += (i % extent) * strides_[du];
        i /= extent;
    }
    return e;
}

float
Tensor::loadElement(int64_t e) const
{
    const uint8_t *base = storage_->raw();
    switch (dtype_) {
      case DType::F32: {
        float v;
        std::memcpy(&v, base + e * 4, 4);
        return v;
      }
      case DType::F16: {
        uint16_t h;
        std::memcpy(&h, base + e * 2, 2);
        return halfToFloat(h);
      }
      case DType::I8:
        return static_cast<float>(
            *reinterpret_cast<const int8_t *>(base + e));
      case DType::I32: {
        int32_t v;
        std::memcpy(&v, base + e * 4, 4);
        return static_cast<float>(v);
      }
      case DType::B8:
        return base[e] ? 1.0f : 0.0f;
    }
    return 0.0f;
}

void
Tensor::storeElement(int64_t e, float v)
{
    uint8_t *base = storage_->raw();
    switch (dtype_) {
      case DType::F32:
        std::memcpy(base + e * 4, &v, 4);
        break;
      case DType::F16: {
        uint16_t h = floatToHalf(v);
        std::memcpy(base + e * 2, &h, 2);
        break;
      }
      case DType::I8: {
        float c = std::clamp(v, -128.0f, 127.0f);
        *reinterpret_cast<int8_t *>(base + e) =
            static_cast<int8_t>(std::lround(c));
        break;
      }
      case DType::I32: {
        int32_t iv = static_cast<int32_t>(std::lround(v));
        std::memcpy(base + e * 4, &iv, 4);
        break;
      }
      case DType::B8:
        base[e] = v != 0.0f ? 1 : 0;
        break;
    }
}

float
Tensor::at(const std::vector<int64_t> &idx) const
{
    return loadElement(elementIndex(idx));
}

void
Tensor::set(const std::vector<int64_t> &idx, float v)
{
    storeElement(elementIndex(idx), v);
}

float
Tensor::flatAt(int64_t i) const
{
    return loadElement(flatToElementIndex(i));
}

void
Tensor::flatSet(int64_t i, float v)
{
    storeElement(flatToElementIndex(i), v);
}

float *
Tensor::dataF32()
{
    assert(dtype_ == DType::F32 && isContiguous());
    return reinterpret_cast<float *>(storage_->raw()) + offset_;
}

const float *
Tensor::dataF32() const
{
    assert(dtype_ == DType::F32 && isContiguous());
    return reinterpret_cast<const float *>(storage_->raw()) + offset_;
}

int8_t *
Tensor::dataI8()
{
    assert(dtype_ == DType::I8 && isContiguous());
    return reinterpret_cast<int8_t *>(storage_->raw()) + offset_;
}

const int8_t *
Tensor::dataI8() const
{
    assert(dtype_ == DType::I8 && isContiguous());
    return reinterpret_cast<const int8_t *>(storage_->raw()) + offset_;
}

int32_t *
Tensor::dataI32()
{
    assert(dtype_ == DType::I32 && isContiguous());
    return reinterpret_cast<int32_t *>(storage_->raw()) + offset_;
}

const int32_t *
Tensor::dataI32() const
{
    assert(dtype_ == DType::I32 && isContiguous());
    return reinterpret_cast<const int32_t *>(storage_->raw()) + offset_;
}

Tensor
Tensor::view(const Shape &shape) const
{
    if (!isContiguous())
        throw std::runtime_error("view() requires a contiguous tensor");
    if (shape.numel() != numel())
        throw std::runtime_error("view(): numel mismatch " + shape_.str() +
                                 " -> " + shape.str());
    return Tensor(storage_, shape, shape.contiguousStrides(), offset_,
                  dtype_);
}

Tensor
Tensor::reshape(const Shape &shape) const
{
    if (isContiguous())
        return view(shape);
    return contiguous().view(shape);
}

Tensor
Tensor::permute(const std::vector<int> &order) const
{
    if (order.size() != shape_.rank())
        throw std::runtime_error("permute(): order rank mismatch");
    std::vector<int64_t> dims(order.size()), strides(order.size());
    std::vector<bool> seen(order.size(), false);
    for (size_t i = 0; i < order.size(); ++i) {
        int o = order[i];
        if (o < 0 || o >= static_cast<int>(order.size()) || seen[o])
            throw std::runtime_error("permute(): invalid order");
        seen[static_cast<size_t>(o)] = true;
        dims[i] = shape_[static_cast<size_t>(o)];
        strides[i] = strides_[static_cast<size_t>(o)];
    }
    return Tensor(storage_, Shape(dims), strides, offset_, dtype_);
}

Tensor
Tensor::transpose(int d0, int d1) const
{
    int r = static_cast<int>(shape_.rank());
    if (d0 < 0)
        d0 += r;
    if (d1 < 0)
        d1 += r;
    std::vector<int> order(static_cast<size_t>(r));
    for (int i = 0; i < r; ++i)
        order[static_cast<size_t>(i)] = i;
    std::swap(order[static_cast<size_t>(d0)], order[static_cast<size_t>(d1)]);
    return permute(order);
}

Tensor
Tensor::contiguous() const
{
    if (isContiguous())
        return *this;
    return Tensor::empty(shape_, dtype_).copyFrom(*this);
}

Tensor
Tensor::slice(int dim, int64_t start, int64_t len) const
{
    int r = static_cast<int>(shape_.rank());
    if (dim < 0)
        dim += r;
    size_t du = static_cast<size_t>(dim);
    if (dim < 0 || dim >= r || start < 0 || start + len > shape_[du])
        throw std::runtime_error("slice(): out of range");
    Shape ns = shape_;
    ns[du] = len;
    return Tensor(storage_, ns, strides_, offset_ + start * strides_[du],
                  dtype_);
}

Tensor
Tensor::unsqueeze(int dim) const
{
    int r = static_cast<int>(shape_.rank());
    if (dim < 0)
        dim += r + 1;
    std::vector<int64_t> dims = shape_.dims();
    std::vector<int64_t> strides = strides_;
    dims.insert(dims.begin() + dim, 1);
    strides.insert(strides.begin() + dim, 0);
    return Tensor(storage_, Shape(dims), strides, offset_, dtype_);
}

Tensor
Tensor::squeeze(int dim) const
{
    int r = static_cast<int>(shape_.rank());
    if (dim < 0)
        dim += r;
    size_t du = static_cast<size_t>(dim);
    if (shape_[du] != 1)
        throw std::runtime_error("squeeze(): dimension is not 1");
    std::vector<int64_t> dims = shape_.dims();
    std::vector<int64_t> strides = strides_;
    dims.erase(dims.begin() + dim);
    strides.erase(strides.begin() + dim);
    return Tensor(storage_, Shape(dims), strides, offset_, dtype_);
}

Tensor
Tensor::expand(const Shape &shape) const
{
    if (shape.rank() != shape_.rank())
        throw std::runtime_error("expand(): rank mismatch");
    std::vector<int64_t> strides = strides_;
    for (size_t i = 0; i < shape.rank(); ++i) {
        if (shape_[i] == shape[i])
            continue;
        if (shape_[i] != 1)
            throw std::runtime_error("expand(): can only expand size-1 dims");
        strides[i] = 0;
    }
    return Tensor(storage_, shape, strides, offset_, dtype_);
}

Tensor
Tensor::clone() const
{
    return Tensor::empty(shape_, dtype_).copyFrom(*this);
}

Tensor
Tensor::to(DType dtype) const
{
    return Tensor::empty(shape_, dtype).copyFrom(*this);
}

Tensor &
Tensor::copyFrom(const Tensor &src)
{
    if (numel() != src.numel())
        throw std::runtime_error("copyFrom: numel mismatch " +
                                 shape_.str() + " <- " +
                                 src.shape().str());
    if (dtype_ == src.dtype_ && isContiguous() && src.isContiguous()) {
        uint8_t *dst_p = storage_->raw() + offset_ * dtypeSize(dtype_);
        const uint8_t *src_p =
            src.storage_->raw() + src.offset_ * dtypeSize(dtype_);
        if (dst_p != src_p)  // memmove: source may share the buffer
            std::memmove(dst_p, src_p, static_cast<size_t>(bytes()));
        return *this;
    }
    for (int64_t i = 0; i < numel(); ++i)
        flatSet(i, src.flatAt(i));
    return *this;
}

Tensor &
Tensor::fillZero()
{
    // All-zero bytes decode to 0 for every supported dtype.
    if (isContiguous()) {
        std::memset(storage_->raw() + offset_ * dtypeSize(dtype_), 0,
                    static_cast<size_t>(bytes()));
        return *this;
    }
    for (int64_t i = 0; i < numel(); ++i)
        flatSet(i, 0.0f);
    return *this;
}

}  // namespace ngb
