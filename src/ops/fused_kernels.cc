#include "ops/fused_kernels.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "ops/kernels.h"
#include "ops/scalar_ops.h"
#include "ops/simd_backend.h"
#include "quant/quant_kernels.h"
#include "quant/weight_pack.h"
#include "tensor/scratch.h"

namespace ngb {

namespace {

namespace sc = kernels::scalar;
namespace sd = kernels::sd;
namespace qnt = kernels::qnt;

/** ParamStore::derived slots used on fused member nodes. */
constexpr size_t kFoldedWeightSlot = 0;
constexpr size_t kFoldedBiasSlot = 1;

/** Context string for fused-chain errors. */
std::string
chainName(const Node &f)
{
    return "fused chain '" + (f.name.empty() ? "<unnamed>" : f.name) +
           "'";
}

/**
 * Map member @p m's kind to a single-pass unary stage, when it is one
 * of the point-wise operators whose simd sweep uses the shared scalar
 * expressions (the bit-identity set). Binary Add/Mul (two
 * inputs) are not stages.
 */
bool
unaryStageOf(const Node &m, sc::UnaryStage *out)
{
    if (m.inputs.size() != 1)
        return false;
    switch (m.kind) {
      case OpKind::ReLU:
        out->kind = sc::UnaryKind::Relu;
        return true;
      case OpKind::GELU:
        out->kind = sc::UnaryKind::Gelu;
        return true;
      case OpKind::SiLU:
        out->kind = sc::UnaryKind::Silu;
        return true;
      case OpKind::Sigmoid:
        out->kind = sc::UnaryKind::Sigmoid;
        return true;
      case OpKind::Tanh:
        out->kind = sc::UnaryKind::Tanh;
        return true;
      case OpKind::Exp:
        out->kind = sc::UnaryKind::Exp;
        return true;
      case OpKind::Add:
        out->kind = sc::UnaryKind::AddScalar;
        out->scalar = static_cast<float>(m.attrs.getF("scalar"));
        return true;
      case OpKind::Mul:
        out->kind = sc::UnaryKind::MulScalar;
        out->scalar = static_cast<float>(m.attrs.getF("scalar"));
        return true;
      default:
        return false;
    }
}

/**
 * Collect the unary stages for members [@p from, end). Returns false
 * when any member is not a stage (or declares a non-F32 result, which
 * the single-pass F32 loop could not reproduce).
 */
bool
collectStages(const std::vector<Node> &body, size_t from,
              std::vector<sc::UnaryStage> *stages)
{
    for (size_t j = from; j < body.size(); ++j) {
        sc::UnaryStage s;
        if (!unaryStageOf(body[j], &s))
            return false;
        if (body[j].outDtypes.size() != 1 ||
            body[j].outDtypes[0] != DType::F32)
            return false;
        stages->push_back(s);
    }
    return true;
}

/** Resolve external port @p port of member @p m through the fused
 *  node's inputs. */
const Tensor &
externalInput(const KernelContext &c, const Node &m, size_t port)
{
    const auto &ext = m.attrs.getInts("__ext_ports");
    if (port >= ext.size() || ext[port] < 0 ||
        ext[port] >= static_cast<int64_t>(c.node.inputs.size()))
        throw std::runtime_error(chainName(c.node) +
                                 ": malformed __ext_ports on member '" +
                                 m.name + "'");
    return c.input(c.node.inputs[static_cast<size_t>(ext[port])]);
}

/**
 * Apply one stage over a block with a TIGHT per-kind loop: the switch
 * is hoisted out of the element loop and in/out are restrict-disjoint
 * (the caller ping-pongs scratch buffers), so cheap stages vectorize
 * exactly like the unfused sweeps they replace — an
 * in-place loop would fail the vectorizer's alias check and run
 * scalar, slower than the sweeps it fuses.
 */
#if defined(__GNUC__)
__attribute__((noinline))  // keep the __restrict__ contract: inlining
                           // into the block loop drops it and the
                           // stage loops fall back to scalar code
#endif
void
applyStageBlock(const sc::UnaryStage s, const float *__restrict__ in,
                float *__restrict__ out, int64_t n)
{
    // NOTE @p s is taken by value: a reference could alias the output
    // buffer, forcing a per-element reload of s.scalar and defeating
    // vectorization of the stage loops.
    switch (s.kind) {
      case sc::UnaryKind::Relu:
        for (int64_t i = 0; i < n; ++i)
            out[i] = sc::relu(in[i]);
        break;
      case sc::UnaryKind::Gelu:
        for (int64_t i = 0; i < n; ++i)
            out[i] = sc::gelu(in[i]);
        break;
      case sc::UnaryKind::Silu:
        for (int64_t i = 0; i < n; ++i)
            out[i] = sc::silu(in[i]);
        break;
      case sc::UnaryKind::Sigmoid:
        for (int64_t i = 0; i < n; ++i)
            out[i] = sc::sigmoid(in[i]);
        break;
      case sc::UnaryKind::Tanh:
        for (int64_t i = 0; i < n; ++i)
            out[i] = sc::tanhOp(in[i]);
        break;
      case sc::UnaryKind::Exp:
        for (int64_t i = 0; i < n; ++i)
            out[i] = sc::expOp(in[i]);
        break;
      case sc::UnaryKind::AddScalar:
        for (int64_t i = 0; i < n; ++i)
            out[i] = in[i] + s.scalar;
        break;
      case sc::UnaryKind::MulScalar:
        for (int64_t i = 0; i < n; ++i)
            out[i] = in[i] * s.scalar;
        break;
    }
}

/**
 * Run a whole unary chain over @p x in L1-resident blocks: each block
 * is read from memory once and written once for the ENTIRE chain
 * (the unfused sweeps stream the full tensor per op), while every
 * stage still runs as a tight vectorizable loop. Per element the
 * stage order is unchanged, so results are bit-identical to the
 * member-by-member sweeps.
 */
Tensor
singlePassChain(const Tensor &x, const std::vector<sc::UnaryStage> &st,
                Tensor dst)
{
    constexpr int64_t kBlk = 4096;  // 16 KiB blocks: L1-hot
    Tensor out =
        kernels::claimOut(std::move(dst), x.shape(), DType::F32);
    const float *px = x.dataF32();
    float *po = out.dataF32();
    int64_t n = x.numel();
    Tensor ping = scratchEmpty(Shape{kBlk}, DType::F32);
    Tensor pong = scratchEmpty(Shape{kBlk}, DType::F32);
    float *scratch_a = ping.dataF32();
    float *scratch_b = pong.dataF32();
    for (int64_t i0 = 0; i0 < n; i0 += kBlk) {
        int64_t len = std::min(kBlk, n - i0);
        const float *src = px + i0;
        for (size_t j = 0; j < st.size(); ++j) {
            float *stage_out = j + 1 == st.size()
                                   ? po + i0
                                   : (src == scratch_a ? scratch_b
                                                       : scratch_a);
            applyStageBlock(st[j], src, stage_out, len);
            src = stage_out;
        }
    }
    return out;
}

/**
 * Hands the chain's tail member the ENCLOSING fused node's output
 * buffer: members carry synthetic ids the memory plan does not know,
 * so the tail resolves its destination through the outer context
 * (planned arena slot or heap) instead of its own node identity.
 */
class TailAllocator final : public Allocator
{
  public:
    explicit TailAllocator(const KernelContext &outer) : outer_(outer) {}

    Tensor allocate(const Node &, size_t i) override
    {
        claimed_ = outer_.out(i);
        return claimed_;
    }

    const char *name() const override { return "fused-tail"; }

    /** The buffer handed to the tail member, if it asked for one. */
    const Tensor &claimed() const { return claimed_; }

  private:
    const KernelContext &outer_;
    Tensor claimed_;
};

/** The BN-like kinds whose running-stats affine folds into a conv. */
bool
isFoldableBn(OpKind k)
{
    return k == OpKind::BatchNorm2d || k == OpKind::FrozenBatchNorm2d;
}

/**
 * Merged Conv+BN weight: W'[f] = W[f] * gamma[f] / sqrt(var[f] + eps).
 * Memoized on the conv member's synthetic id, so every request of a
 * long-lived engine reuses one fold.
 */
const Tensor &
foldedConvWeight(const Node &conv, const Node &bn, ParamStore &params)
{
    return params.derived(conv, kFoldedWeightSlot, [&]() -> Tensor {
        Tensor w = toContiguousF32(params.get(conv, 0));
        Tensor gamma = toContiguousF32(params.get(bn, 0));
        Tensor var = toContiguousF32(params.get(bn, 3));
        float eps = static_cast<float>(bn.attrs.getF("eps", 1e-5));
        int64_t f = w.shape()[0];
        int64_t per = w.numel() / f;
        Tensor out(w.shape(), DType::F32);
        const float *pw = w.dataF32();
        const float *pg = gamma.dataF32();
        const float *pv = var.dataF32();
        float *po = out.dataF32();
        for (int64_t ff = 0; ff < f; ++ff) {
            float inv = 1.0f / std::sqrt(pv[ff] + eps);
            float s = pg[ff] * inv;
            const float *row = pw + ff * per;
            float *orow = po + ff * per;
            for (int64_t j = 0; j < per; ++j)
                orow[j] = row[j] * s;
        }
        return out;
    });
}

/** Merged Conv+BN bias: b'[f] = beta[f] + (b0[f] - mean[f]) * s[f]. */
const Tensor &
foldedConvBias(const Node &conv, const Node &bn, ParamStore &params)
{
    return params.derived(conv, kFoldedBiasSlot, [&]() -> Tensor {
        Tensor gamma = toContiguousF32(params.get(bn, 0));
        Tensor beta = toContiguousF32(params.get(bn, 1));
        Tensor mean = toContiguousF32(params.get(bn, 2));
        Tensor var = toContiguousF32(params.get(bn, 3));
        float eps = static_cast<float>(bn.attrs.getF("eps", 1e-5));
        int64_t f = gamma.numel();
        Tensor b0;
        if (conv.paramShapes.size() > 1)
            b0 = toContiguousF32(
                params.get(conv, conv.paramShapes.size() - 1));
        Tensor out(Shape{f}, DType::F32);
        const float *pg = gamma.dataF32();
        const float *pb = beta.dataF32();
        const float *pm = mean.dataF32();
        const float *pv = var.dataF32();
        const float *p0 = b0.defined() ? b0.dataF32() : nullptr;
        float *po = out.dataF32();
        for (int64_t ff = 0; ff < f; ++ff) {
            float inv = 1.0f / std::sqrt(pv[ff] + eps);
            float s = pg[ff] * inv;
            po[ff] = pb[ff] + ((p0 ? p0[ff] : 0.0f) - pm[ff]) * s;
        }
        return out;
    });
}

}  // namespace

std::vector<Tensor>
evalFusedChain(const KernelContext &c, const Backend &memberBackend)
{
    const Node &f = c.node;
    if (f.fusedBody.empty())
        throw std::runtime_error(
            chainName(f) +
            ": no folded members (fusedBody is empty; was this node "
            "produced by applyFusion?)");

    // External inputs the chain result could alias (layout-op tails):
    // under arena execution such a view would escape into a buffer the
    // planner thinks is dead, so it must be copied out below.
    std::vector<const Storage *> ext_storages;

    TailAllocator tail(c);
    Tensor chain;
    for (size_t j = 0; j < f.fusedBody.size(); ++j) {
        const Node &m = f.fusedBody[j];
        if (m.outShapes.size() != 1)
            throw std::runtime_error(
                chainName(f) + ": cannot fold member '" + m.name +
                "' (" + opKindName(m.kind) +
                "): multi-output operators are not foldable");
        const auto &ext = m.attrs.getInts("__ext_ports");
        if (ext.size() != m.inputs.size())
            throw std::runtime_error(chainName(f) +
                                     ": member '" + m.name +
                                     "' has no valid __ext_ports map");
        // Resolve every port up front (Tensor copies are shallow).
        std::vector<Tensor> ports(m.inputs.size());
        for (size_t p = 0; p < ext.size(); ++p) {
            if (ext[p] < 0) {
                if (j == 0 || !chain.defined())
                    throw std::runtime_error(
                        chainName(f) + ": head member '" + m.name +
                        "' references a predecessor output");
                ports[p] = chain;
            } else {
                ports[p] = externalInput(c, m, p);
                ext_storages.push_back(ports[p].storage().get());
            }
        }
        std::function<const Tensor &(const Value &)> input =
            [&](const Value &v) -> const Tensor & {
            for (size_t p = 0; p < m.inputs.size(); ++p)
                if (m.inputs[p] == v)
                    return ports[p];
            throw std::runtime_error(chainName(f) + ": member '" +
                                     m.name +
                                     "' resolved an unknown input");
        };
        // Intermediates die inside this (scoped) kernel call, so they
        // come from scratch; the tail writes straight into the fused
        // node's own output buffer.
        Allocator *member_alloc =
            j + 1 == f.fusedBody.size()
                ? static_cast<Allocator *>(&tail)
                : &ScratchAllocator::instance();
        std::vector<Tensor> outs;
        try {
            outs = memberBackend.eval(KernelContext{
                m, input, c.params, &memberBackend, member_alloc,
                c.par});
        } catch (const std::exception &e) {
            throw std::runtime_error(
                chainName(f) + ": cannot fold member '" + m.name +
                "' (" + opKindName(m.kind) + "): " + e.what());
        }
        if (outs.size() != 1)
            throw std::runtime_error(
                chainName(f) + ": member '" + m.name + "' produced " +
                std::to_string(outs.size()) +
                " outputs; fused chains are single-value");
        chain = std::move(outs[0]);
    }

    // A layout-op tail may have produced a VIEW instead of writing the
    // tail buffer: of a scratch intermediate (whose bytes die with
    // this call) or, under arena execution, of an external input
    // (whose arena slot the planner may reuse while this result is
    // still live). Both must be materialized into the node's own
    // output buffer before escaping. A chain that already sits in the
    // buffer the TailAllocator handed out is in place — under arena
    // execution EVERY planned tensor shares one block Storage, so
    // storage identity with an external input alone proves nothing
    // and copying would be a same-slot self-copy.
    bool in_place = tail.claimed().defined() &&
                    chain.storage().get() ==
                        tail.claimed().storage().get() &&
                    chain.offset() == tail.claimed().offset();
    if (!in_place) {
        bool escapes_scratch = isScratch(chain);
        bool aliases_external = false;
        if (c.alloc && !escapes_scratch)
            for (const Storage *s : ext_storages)
                aliases_external =
                    aliases_external || chain.storage().get() == s;
        if (escapes_scratch || aliases_external) {
            Tensor out = c.out(0);
            out.copyFrom(chain);
            chain = std::move(out);
        }
    }
    return singleOutput(std::move(chain));
}

std::vector<Tensor>
evalFusedSimd(const KernelContext &c, const simd::SimdOps &ops)
{
    const Node &f = c.node;
    const std::vector<Node> &body = f.fusedBody;
    const Backend &active = c.backend ? *c.backend : simdBackend();
    if (body.empty())
        return evalFusedChain(c, active);  // throws the descriptive error

    // CONV (+BN) (+ unary epilogue): one im2col GEMM convolution. With
    // a BN member the affine is pre-merged into weights/bias
    // (tolerance: the scale multiplies before the k accumulation
    // instead of after).
    if (body[0].kind == OpKind::Conv2d) {
        const Node &conv = body[0];
        size_t epi_start = 1;
        const Node *bn = nullptr;
        if (body.size() > 1 && isFoldableBn(body[1].kind)) {
            bn = &body[1];
            epi_start = 2;
        }
        std::vector<sc::UnaryStage> stages;
        if (collectStages(body, epi_start, &stages)) {
            const Tensor &x = externalInput(c, conv, 0);
            Tensor w, b;
            if (bn) {
                w = foldedConvWeight(conv, *bn, c.params);
                b = foldedConvBias(conv, *bn, c.params);
            } else {
                w = c.params.get(conv, 0);
                if (conv.paramShapes.size() > 1)
                    b = c.params.get(conv, conv.paramShapes.size() - 1);
            }
            return singleOutput(sd::conv2dEpi(
                ops, x, w, b, static_cast<int>(conv.attrs.getI("stride")),
                static_cast<int>(conv.attrs.getI("padding")),
                static_cast<int>(conv.attrs.getI("groups", 1)),
                stages.data(), stages.size(), c.out(0), c.par));
        }
    }

    // GEMM head + unary epilogue: the stages run over each finished
    // output macro-tile inside the GEMM's own shards. Bit-identical to
    // the unfused GEMM followed by the member sweeps (same scalar
    // expressions, same per-element order; int8 accumulation is
    // exact).
    const Node &head = body[0];
    std::vector<sc::UnaryStage> stages;
    const bool gemmEpilogue =
        body.size() > 1 && collectStages(body, 1, &stages);
    Tensor bias;
    if (gemmEpilogue && head.paramShapes.size() > 1)
        bias = c.params.get(head, head.paramShapes.size() - 1);

    // Int8Linear(requant): the whole quantized region tail — rescale,
    // bias, and point-wise stages.
    if (gemmEpilogue && head.kind == OpKind::Int8Linear &&
        head.attrs.getI("requant", 0))
        return singleOutput(sd::int8LinearRequantEpi(
            ops, externalInput(c, head, 0),
            qnt::scaleValue(externalInput(c, head, 1)),
            sd::int8Weight(ops, head, c.params),
            quant::weightScales(head, c.params), bias, stages.data(),
            stages.size(), c.out(0), c.par));

    if (gemmEpilogue && head.kind == OpKind::Linear) {
        const Tensor &x = externalInput(c, head, 0);
        if (head.attrs.getI("wq8", 0))
            // Weight-only int8: scale/bias/stages in the tile write-out.
            return singleOutput(qnt::w8LinearPacked(
                x, quant::packedWeight(head, c.params),
                quant::weightScales(head, c.params), bias, stages.data(),
                stages.size(), c.out(0), c.par));
        return singleOutput(sd::linearPackedEpi(
            ops, x, c.params.derived(head, 0, [&] {
                return sd::packWeightTranspose(c.params.get(head, 0));
            }),
            bias, stages.data(), stages.size(), c.out(0), c.par));
    }

    // All-unary point-wise chain on contiguous F32 data: single pass
    // over the tensor (one read, one write for the whole chain, with
    // L1-blocked vectorizable stage loops). Bit-identical to the
    // member-by-member sweeps.
    stages.clear();
    if (collectStages(body, 0, &stages)) {
        const Tensor &x = externalInput(c, head, 0);
        if (x.dtype() == DType::F32 && x.isContiguous())
            return singleOutput(singlePassChain(x, stages, c.out(0)));
    }

    // General case (normalizations, softmax, binary elementwise, Q/DQ,
    // layout members, BMM/MatMul heads, ...): interpret the chain
    // through the active backend, so per-op kernels still apply inside
    // the group.
    return evalFusedChain(c, active);
}

void
prepareFusedGroups(const Graph &g, ParamStore &params)
{
    for (const Node &n : g.nodes()) {
        const std::vector<Node> &body = n.fusedBody;
        if (n.kind == OpKind::Fused && body.size() > 1 &&
            body[0].kind == OpKind::Conv2d && isFoldableBn(body[1].kind)) {
            foldedConvWeight(body[0], body[1], params);
            foldedConvBias(body[0], body[1], params);
        }
    }
}

}  // namespace ngb
