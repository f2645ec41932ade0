#include "deploy/fusion.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "platform/env.h"

namespace ngb {

namespace {

bool
isInputNode(const Node &n)
{
    return n.inputs.empty();
}

/** Kinds allowed inside a point-wise fusion chain. */
bool
pointwiseFusible(const Node &n, bool through_layout)
{
    if (n.kind == OpKind::Fused)
        return false;  // never nest fused groups
    if (n.outShapes.size() != 1)
        return false;  // e.g. executable Quantize: value + scale out
    switch (n.category()) {
      case OpCategory::Activation:
      case OpCategory::ElementWise:
      case OpCategory::Normalization:
      case OpCategory::LogitCompute:
      case OpCategory::QDQ:
        return true;
      case OpCategory::Memory:
        return through_layout && n.cost.zeroCopy;
      default:
        return false;
    }
}

/** Sum of activation bytes of a node's outputs. */
double
outBytes(const Node &n)
{
    double b = 0;
    for (size_t i = 0; i < n.outShapes.size(); ++i)
        b += static_cast<double>(n.outShapes[i].numel()) *
             static_cast<double>(dtypeSize(n.outDtypes[i]));
    return b;
}

double
valueBytes(const Graph &g, const Value &v)
{
    return static_cast<double>(g.shapeOf(v).numel()) *
           static_cast<double>(dtypeSize(g.dtypeOf(v)));
}

}  // namespace

KernelGroup
singletonGroup(const Graph &g, const Node &n)
{
    (void)g;
    KernelGroup kg;
    kg.nodeIds = {n.id};
    kg.category = n.category();
    kg.label = n.name;
    kg.zeroCopy = n.cost.zeroCopy;
    kg.kernelCount = static_cast<int>(n.attrs.getI("kernels", 1));
    kg.bigKernels = static_cast<int>(
        n.attrs.getI("big_kernels", kg.kernelCount));
    kg.flops = n.cost.flops;
    kg.bytesIn = n.cost.bytesIn;
    kg.bytesOut = n.cost.bytesOut;
    kg.bytesParam = n.cost.bytesParam;
    kg.i8 = n.kind == OpKind::Int8Linear;
    kg.hostSyncs = static_cast<int>(n.attrs.getI("syncs", 0));
    return kg;
}

std::vector<KernelGroup>
fuseGraph(const Graph &g, const FusionConfig &cfg, FusionStats *stats)
{
    std::vector<int> uses = g.useCounts();

    // Map each value to its single consumer node id (or -1).
    std::map<std::pair<int, int>, int> consumer;
    for (const Node &n : g.nodes()) {
        for (const Value &v : n.inputs) {
            auto key = std::make_pair(v.node, v.index);
            if (consumer.count(key))
                consumer[key] = -2;  // multiple consumers
            else
                consumer[key] = n.id;
        }
    }
    auto soleConsumer = [&](int node_id) -> const Node * {
        const Node &n = g.node(node_id);
        if (n.outShapes.size() != 1)
            return nullptr;
        if (uses[static_cast<size_t>(node_id)] != 1)
            return nullptr;
        auto it = consumer.find({node_id, 0});
        if (it == consumer.end() || it->second < 0)
            return nullptr;
        return &g.node(it->second);
    };

    FusionStats st;
    std::vector<bool> taken(g.size(), false);
    std::vector<KernelGroup> groups;

    for (const Node &n : g.nodes()) {
        if (!isInputNode(n) && !n.isGemm())
            ++st.totalNonGemm;
    }

    auto aggregate = [&](const std::vector<int> &ids) {
        KernelGroup kg;
        kg.nodeIds = ids;
        kg.fused = ids.size() > 1;
        kg.kernelCount = 1;
        std::set<int> members(ids.begin(), ids.end());
        double best_weight = -1;
        bool has_gemm = false;
        for (int id : ids) {
            const Node &m = g.node(id);
            kg.flops += m.cost.flops;
            kg.bytesParam += m.cost.bytesParam;
            kg.i8 = kg.i8 || m.kind == OpKind::Int8Linear;
            if (m.isGemm())
                has_gemm = true;
            // External inputs only (graph inputs included: the fused
            // kernel still reads those bytes).
            for (const Value &v : m.inputs) {
                if (!members.count(v.node))
                    kg.bytesIn += valueBytes(g, v);
            }
            double w = m.cost.flops + m.cost.bytesIn + m.cost.bytesOut;
            if (!m.isGemm() && w > best_weight) {
                best_weight = w;
                kg.category = m.category();
                kg.label = m.name;
            }
        }
        // Outputs escaping the group.
        int last = ids.back();
        kg.bytesOut += outBytes(g.node(last));
        if (has_gemm) {
            kg.category = OpCategory::Gemm;
            kg.label = g.node(ids.front()).name + "+fused";
        }
        return kg;
    };

    // Values below 1 would let an empty "chain" through the threshold
    // check; a chain always contains at least its head.
    const int min_chain = std::max(cfg.minChainLen, 1);

    // Greedy point-wise extension from @p tail into @p chain.
    auto extendChain = [&](std::vector<int> &chain, int tail) {
        while (true) {
            const Node *c = soleConsumer(tail);
            if (!c || taken[static_cast<size_t>(c->id)])
                break;
            if (!pointwiseFusible(*c, cfg.fuseThroughLayout))
                break;
            // The chain tail must be the consumer's data producer;
            // other inputs become external group inputs.
            chain.push_back(c->id);
            tail = c->id;
        }
    };

    for (const Node &n : g.nodes()) {
        if (taken[static_cast<size_t>(n.id)] || isInputNode(n))
            continue;

        std::vector<int> chain = {n.id};

        if (cfg.fuseConvBnRelu && n.kind == OpKind::Conv2d) {
            // CONV -> BN [-> ReLU] folding.
            const Node *c = soleConsumer(n.id);
            if (c && (c->kind == OpKind::BatchNorm2d ||
                      c->kind == OpKind::FrozenBatchNorm2d ||
                      c->kind == OpKind::GroupNorm)) {
                chain.push_back(c->id);
                const Node *r = soleConsumer(c->id);
                if (r && (r->kind == OpKind::ReLU ||
                          r->kind == OpKind::SiLU ||
                          r->kind == OpKind::GELU))
                    chain.push_back(r->id);
            } else if (c && c->kind == OpKind::ReLU) {
                chain.push_back(c->id);
            }
        }
        if (chain.size() == 1 && cfg.fuseGemmEpilogues && n.isGemm() &&
            n.kind != OpKind::Fused && n.outShapes.size() == 1) {
            // GEMM + point-wise epilogue chain. Any epilogue is worth
            // folding into the GEMM write-out, so the point-wise
            // profitability threshold does not apply.
            extendChain(chain, n.id);
        } else if (chain.size() == 1 && cfg.fusePointwiseChains &&
                   pointwiseFusible(n, cfg.fuseThroughLayout)) {
            extendChain(chain, n.id);
            // Chains below the flow's profitability threshold stay
            // unfused; a single zero-copy op stays zero-copy.
            if (static_cast<int>(chain.size()) < min_chain) {
                chain.resize(1);
            }
            if (chain.size() == 1) {
                KernelGroup kg = singletonGroup(g, n);
                groups.push_back(kg);
                taken[static_cast<size_t>(n.id)] = true;
                ++st.groupsEmitted;
                continue;
            }
        }

        if (chain.size() > 1) {
            for (int id : chain)
                taken[static_cast<size_t>(id)] = true;
            KernelGroup kg = aggregate(chain);
            bool head_gemm = g.node(chain.front()).isGemm();
            for (int id : chain) {
                const Node &m = g.node(id);
                if (!m.isGemm()) {
                    ++st.fusedNonGemm;
                    if (head_gemm)
                        ++st.fusedWithGemm;
                }
            }
            groups.push_back(std::move(kg));
        } else {
            taken[static_cast<size_t>(n.id)] = true;
            groups.push_back(singletonGroup(g, n));
        }
        ++st.groupsEmitted;
    }

    if (stats)
        *stats = st;
    return groups;
}

namespace {

/**
 * Member slots per fused node in the synthetic negative member-id
 * space (-1 - fid * kMaxFusedMembers - j). Member ids must be unique
 * per ParamStore, which keys its caches on (node id, param index);
 * real node ids are non-negative, so the two spaces never collide.
 */
constexpr int kMaxFusedMembers = 256;

}  // namespace

Graph
applyFusion(const Graph &g, const FusionConfig &cfg, FusionStats *stats)
{
    std::vector<KernelGroup> groups = fuseGraph(g, cfg, stats);

    // Work items: every input/constant node (fuseGraph skips them)
    // plus every group, emitted in ascending tail-id order. Chain
    // member ids strictly ascend and only a group's tail value
    // escapes the group, so the producer of any external input has a
    // strictly smaller tail id than the consuming group's tail:
    // ascending tail order is a topological order for the new graph.
    struct Item {
        int tail;
        const KernelGroup *group;  ///< null: input node @p tail
    };
    std::vector<Item> items;
    for (const Node &n : g.nodes())
        if (isInputNode(n))
            items.push_back({n.id, nullptr});
    for (const KernelGroup &kg : groups)
        items.push_back({kg.nodeIds.back(), &kg});
    std::sort(items.begin(), items.end(),
              [](const Item &a, const Item &b) { return a.tail < b.tail; });

    Graph out;
    out.setName(g.name());
    std::map<std::pair<int, int>, Value> vmap;  // old value -> new
    auto mapValue = [&](const Value &v) {
        auto it = vmap.find({v.node, v.index});
        if (it == vmap.end())
            throw std::runtime_error(
                "applyFusion: value from node " + std::to_string(v.node) +
                " consumed before its group was emitted (fusion broke "
                "topological order)");
        return it->second;
    };
    // Fusion renumbers nodes, but parameter values are seeded by node
    // id; "seed_id" pins every node (and fused member) to its
    // pre-rewrite id so the rewritten graph computes with identical
    // parameters. Existing seed_ids (an already-rewritten input graph)
    // are kept.
    auto pinSeedId = [](Node &n, int old_id) {
        if (!n.attrs.has("seed_id"))
            n.attrs.set("seed_id", old_id);
    };

    for (const Item &item : items) {
        if (!item.group || item.group->nodeIds.size() == 1) {
            // Input node or singleton group: copy through.
            int old_id = item.group ? item.group->nodeIds[0] : item.tail;
            Node n = g.node(old_id);
            pinSeedId(n, old_id);
            for (Value &v : n.inputs)
                v = mapValue(v);
            int nid = out.addNode(std::move(n));
            const Node &src = g.node(old_id);
            for (size_t k = 0; k < src.outShapes.size(); ++k)
                vmap[{old_id, static_cast<int>(k)}] =
                    Value{nid, static_cast<int>(k)};
            continue;
        }

        const KernelGroup &kg = *item.group;
        if (kg.nodeIds.size() > static_cast<size_t>(kMaxFusedMembers))
            throw std::runtime_error(
                "applyFusion: fused group exceeds " +
                std::to_string(kMaxFusedMembers) + " members");

        Node f;
        f.kind = OpKind::Fused;
        f.attributedCategory = kg.category;
        f.cost.flops = kg.flops;
        f.cost.bytesIn = kg.bytesIn;
        f.cost.bytesOut = kg.bytesOut;
        f.cost.bytesParam = kg.bytesParam;

        std::vector<Node> body;
        std::vector<Value> ext;
        std::string name;
        int prev = -1;
        for (int id : kg.nodeIds) {
            const Node &m = g.node(id);
            if (m.outShapes.size() != 1)
                throw std::runtime_error(
                    "applyFusion: cannot fold multi-output op '" +
                    m.name + "' into a fused chain");
            Node member = m;
            pinSeedId(member, id);
            // Map each input port: -1 = fed by the previous member's
            // output, else an index into the fused node's inputs.
            std::vector<int64_t> ext_ports;
            int chain_ports = 0;
            for (const Value &v : m.inputs) {
                if (prev != -1 && v.node == prev) {
                    ext_ports.push_back(-1);
                    ++chain_ports;
                } else {
                    ext_ports.push_back(
                        static_cast<int64_t>(ext.size()));
                    ext.push_back(mapValue(v));
                }
            }
            if (prev != -1 && chain_ports != 1)
                throw std::runtime_error(
                    "applyFusion: chain member '" + m.name +
                    "' must consume its predecessor exactly once");
            member.attrs.setInts("__ext_ports", std::move(ext_ports));
            f.fusedKinds.push_back(m.kind);
            name += (name.empty() ? "" : "+") + m.name;
            body.push_back(std::move(member));
            prev = id;
        }
        const Node &tail = g.node(kg.nodeIds.back());
        f.name = std::move(name);
        f.inputs = std::move(ext);
        f.outShapes = tail.outShapes;
        f.outDtypes = tail.outDtypes;

        int fid = out.addNode(std::move(f));
        Node &fn = out.node(fid);
        for (size_t j = 0; j < body.size(); ++j)
            body[j].id = -1 - (fid * kMaxFusedMembers +
                               static_cast<int>(j));
        fn.fusedBody = std::move(body);
        vmap[{kg.nodeIds.back(), 0}] = Value{fid, 0};
    }

    for (const Value &v : g.graphInputs())
        out.markInput(mapValue(v));
    for (const Value &v : g.graphOutputs())
        out.markOutput(mapValue(v));
    return out;
}

FusionConfig
executableFusionConfig()
{
    FusionConfig cfg;
    cfg.fuseConvBnRelu = true;
    cfg.fusePointwiseChains = true;
    cfg.fuseGemmEpilogues = true;
    return cfg;
}

bool
fuseEnabledByEnv()
{
    return platform::envFlag("NGB_FUSE");
}

}  // namespace ngb
