#include <sstream>

#include "bdd/bdd.hpp"

namespace bdsmaj::bdd {

// DOT rendering in the style of Fig. 1 of the paper: solid then-edges,
// dashed else-edges, dotted else-edges when complemented; one rank per
// variable level.
std::string Manager::to_dot(std::span<const Bdd> roots,
                            std::span<const std::string> names) {
    std::ostringstream os;
    os << "digraph bdd {\n  rankdir = TB;\n";
    // Multi-root stamped traversal (shares the Manager scratch arrays).
    const std::uint32_t gen = begin_traversal();
    std::vector<NodeIndex>& stack = scratch_stack_;
    stack.clear();
    for (std::size_t i = 0; i < roots.size(); ++i) {
        const Edge e = roots[i].edge();
        const std::string name =
            i < names.size() ? names[i] : std::string("f").append(std::to_string(i));
        os << "  \"" << name << "\" [shape=plaintext];\n";
        os << "  \"" << name << "\" -> n" << edge_index(e)
           << (edge_complemented(e) ? " [style=dotted]" : "") << ";\n";
        const NodeIndex idx = edge_index(e);
        if (idx != kTerminalIndex && visit_stamp_[idx] != gen) {
            visit_stamp_[idx] = gen;
            stack.push_back(idx);
        }
    }
    os << "  n" << kTerminalIndex << " [label=\"1\", shape=box];\n";
    while (!stack.empty()) {
        const NodeIndex idx = stack.back();
        stack.pop_back();
        const Node& n = nodes_[idx];
        os << "  n" << idx << " [label=\"x"
           << level_to_var_[n.level] << "\", shape=circle];\n";
        os << "  n" << idx << " -> n" << edge_index(n.hi) << " [style=solid];\n";
        os << "  n" << idx << " -> n" << edge_index(n.lo)
           << (edge_complemented(n.lo) ? " [style=dotted]" : " [style=dashed]")
           << ";\n";
        for (const Edge child : {n.hi, n.lo}) {
            const NodeIndex ci = edge_index(child);
            if (ci != kTerminalIndex && visit_stamp_[ci] != gen) {
                visit_stamp_[ci] = gen;
                stack.push_back(ci);
            }
        }
    }
    os << "}\n";
    return os.str();
}

}  // namespace bdsmaj::bdd
