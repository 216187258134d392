# The family of numerical monoids closed under a fixed adjustment set C
# forms a tree: the root is the largest member of the family and each
# child removes one generator above the parent's frobenius number.
# Walking it enumerates the family without ever testing a monoid twice.

from incentives import (
    EnumerationBound,
    brute_force_family,
    decompose,
    enumerate_tree,
    is_finite_family,
    max_numerical_incentive,
)

C = (-3, 2)
print("root of the family for C =", list(C), "is", max_numerical_incentive(C))

tree = enumerate_tree(C, None, EnumerationBound("max_frobenius", 8))
print(f"nodes with frobenius <= 8: {tree.node_count} (truncated: {tree.truncated})")
print()


def show(kids, node):
    pad = "  " * node.depth
    sg = node.semigroup
    tag = f" (removed {node.removed_generator})" if node.parent is not None else ""
    print(f"{pad}{sg} frobenius={sg.frobenius} genus={sg.genus}{tag}")
    for child in kids[node]:
        show(kids, child)


show(tree.children_by_parent(), tree.root)
print()

# Exhaustive cross-check: collect every numerical monoid with small
# frobenius number and keep the ones closed under C.  Same family.
wide = enumerate_tree(C, None, EnumerationBound("max_frobenius", 13))
brute = brute_force_family(C, 13)
assert set(brute) == {n.semigroup.msg.elements for n in wide.nodes}
print(f"up to frobenius 13 the walk finds {wide.node_count} monoids,")
print("matching the brute-force enumeration exactly")
print()

# Requiring some fixed elements can cut the family down to finitely
# many monoids, found by an unbounded walk.
C2, X2 = (-4, 6), (4, 9)
print(f"family for C={list(C2)} containing X={list(X2)} finite?",
      is_finite_family(C2, X2))
finite = enumerate_tree(C2, X2, EnumerationBound("max_genus", None))
print(f"all {finite.node_count} members:")
for node in finite.nodes:
    print("  ", node.semigroup)
print()

# When gcd considerations rule out numerical monoids, the family splits
# into scaled copies, one per divisor.
parts = decompose((-4, 6), None, EnumerationBound("max_genus", 3))
print("decomposition of the family for C={-4,6} up to genus 3:")
print("  includes the trivial monoid {0}:", parts.includes_trivial)
for d, slice_tree in parts.trees.items():
    print(f"  divisor {d}: {slice_tree.node_count} monoids")
print()

# Trees export to DOT for rendering with graphviz.
dot = tree.to_dot()
print("DOT export, first lines:")
for line in dot.splitlines()[:5]:
    print("  " + line)
print("  ...")
