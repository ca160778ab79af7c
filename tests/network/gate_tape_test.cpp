// GateTape: recording ops against placeholder leaves and replaying them
// into a sink must reproduce exactly what direct emission produces —
// the property the parallel flow's deterministic merge rests on.

#include "network/gate_tape.hpp"

#include <gtest/gtest.h>

#include "network/blif.hpp"
#include "network/builder.hpp"

namespace bdsmaj::net {
namespace {

TEST(GateTape, ReplayMatchesDirectEmission) {
    // The same op sequence, once directly into a builder, once recorded on
    // a tape and replayed into a second builder over the same leaves.
    const auto sequence = [](GateSink& sink,
                             const std::vector<Signal>& lv) -> Signal {
        const Signal a = sink.build_and(lv[0], lv[1]);
        const Signal x = sink.build_xor(a, !lv[2]);
        const Signal m = sink.build_maj(a, x, lv[3]);
        const Signal u = sink.build_mux(lv[0], m, !x);
        return sink.build_or(u, sink.constant(false));
    };

    Network direct_net("t");
    HashedNetworkBuilder direct(direct_net);
    std::vector<Signal> direct_leaves;
    for (int i = 0; i < 4; ++i) {
        direct_leaves.push_back(
            Signal{direct_net.add_input(std::string("i").append(std::to_string(i))), false});
    }
    const Signal direct_root = sequence(direct, direct_leaves);
    direct_net.add_output("y", direct.realize(direct_root));

    GateTape tape(4);
    std::vector<Signal> tape_leaves;
    for (std::size_t i = 0; i < 4; ++i) tape_leaves.push_back(tape.leaf(i));
    tape.set_root(sequence(tape, tape_leaves));

    Network replay_net("t");
    HashedNetworkBuilder replay(replay_net);
    std::vector<Signal> replay_leaves;
    for (int i = 0; i < 4; ++i) {
        replay_leaves.push_back(
            Signal{replay_net.add_input(std::string("i").append(std::to_string(i))), false});
    }
    const Signal replay_root = tape.replay(replay, replay_leaves);
    replay_net.add_output("y", replay.realize(replay_root));

    EXPECT_EQ(direct_root, replay_root);
    EXPECT_EQ(write_blif(direct_net), write_blif(replay_net));
}

TEST(GateTape, ConstantPolarityIsPreserved) {
    // constant(v) on the tape must replay as constant(v), not as a
    // complemented constant of the other polarity — the output network
    // would otherwise grow a node of the wrong kind.
    GateTape tape(1);
    const Signal c1 = tape.constant(true);
    const Signal c0 = tape.constant(false);
    EXPECT_EQ(c0, !c1) << "tape constants share one id, polarity in the bit";
    tape.set_root(tape.build_and(tape.leaf(0), c1));

    Network net("c");
    HashedNetworkBuilder builder(net);
    const std::vector<Signal> leaves = {Signal{net.add_input("a"), false}};
    const Signal root = tape.replay(builder, leaves);
    // AND(a, const1) folds to a itself: no gate, no constant node needed
    // beyond what the builder chose to materialize.
    EXPECT_EQ(root, leaves[0]);
}

TEST(GateTape, ComplementedRootAndLeaves) {
    GateTape tape(2);
    tape.set_root(!tape.build_xor(!tape.leaf(0), tape.leaf(1)));

    Network net("x");
    HashedNetworkBuilder builder(net);
    const std::vector<Signal> leaves = {Signal{net.add_input("a"), false},
                                        Signal{net.add_input("b"), false}};
    const Signal root = tape.replay(builder, leaves);
    net.add_output("y", builder.realize(root));

    // !(!a ^ b) == a ^ b up to builder normalization: exactly one XOR-family
    // gate must exist and the function must match.
    const NetworkStats s = net.stats();
    EXPECT_EQ(s.xor_nodes + s.xnor_nodes, 1);
    EXPECT_EQ(s.total(), 1);
}

TEST(GateTape, ReplaysIntoAnotherTape) {
    // The replay target is any GateSink, so tapes compose: tape -> tape ->
    // builder equals tape -> builder.
    GateTape inner(2);
    inner.set_root(inner.build_or(inner.leaf(0), !inner.leaf(1)));

    GateTape outer(2);
    const std::vector<Signal> outer_leaves = {outer.leaf(0), outer.leaf(1)};
    outer.set_root(inner.replay(outer, outer_leaves));
    EXPECT_EQ(outer.size(), inner.size());

    Network via_outer("a"), direct("a");
    HashedNetworkBuilder b1(via_outer), b2(direct);
    std::vector<Signal> l1 = {Signal{via_outer.add_input("p"), false},
                              Signal{via_outer.add_input("q"), false}};
    std::vector<Signal> l2 = {Signal{direct.add_input("p"), false},
                              Signal{direct.add_input("q"), false}};
    via_outer.add_output("y", b1.realize(outer.replay(b1, l1)));
    direct.add_output("y", b2.realize(inner.replay(b2, l2)));
    EXPECT_EQ(write_blif(via_outer), write_blif(direct));
}

TEST(GateTape, EmptyTapeRootIsLeafOrConstant) {
    GateTape tape(1);
    tape.set_root(tape.leaf(0));
    Network net("w");
    HashedNetworkBuilder builder(net);
    const std::vector<Signal> leaves = {Signal{net.add_input("a"), false}};
    EXPECT_EQ(tape.replay(builder, leaves), leaves[0]);

    GateTape const_tape(0);
    const_tape.set_root(const_tape.constant(true));
    const Signal c = const_tape.replay(builder, {});
    EXPECT_TRUE(builder.is_const(c, true));
}

}  // namespace
}  // namespace bdsmaj::net
