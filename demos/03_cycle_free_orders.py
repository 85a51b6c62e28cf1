"""Cycle-free partial orders: completion points, unique paths, and the
alternation rank.

Run with:  python3 demos/03_cycle_free_orders.py
"""

from omegacat.cfpo import (
    AMBIGUOUS,
    alt,
    alt_rank,
    path,
    path_completion,
    validate_cfpo,
)
from omegacat.posets import FinPoset, dump_poset


def show(title):
    print()
    print(f"== {title}")


show("The bowtie: two bottoms a,b under two tops x,y")
bow = FinPoset(["a", "b", "x", "y"], [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])
print(dump_poset(bow), end="")

show("Path completion adds the missing branch point (flagged irrational)")
q = path_completion(bow)
print(dump_poset(q), end="")
added = [x for x in q.elements if x not in bow.elements]
print(f"  added: {added}")

show("Paths are then unique; they route through the new point")
for a, b in [("a", "x"), ("a", "b"), ("x", "y")]:
    print(f"  path({a},{b}) = {sorted(path(q, a, b), key=str)}")
print(f"  verdict: validate -> {validate_cfpo(bow)}")

show("The diamond is NOT cycle-free: two routes between the same points")
diamond = FinPoset(
    ["a", "b", "r", "t"], [("r", "a"), ("r", "b"), ("a", "t"), ("b", "t")]
)
result = path(path_completion(diamond), "a", "b")
print(f"  path(a,b) = {'ambiguous' if result is AMBIGUOUS else result}")
print(f"  verdict: validate -> {validate_cfpo(diamond)}")

show("Zigzags: alt(n) alternates n points down-up-down-...")
z = alt(5)
print(dump_poset(z), end="")

show("The alternation rank: the longest zigzag that embeds")
for name, p in [
    ("alt(5)", z),
    ("chain of 3", FinPoset([0, 1, 2], [(0, 1), (1, 2)])),
    ("bowtie", bow),
    ("diamond", diamond),
]:
    print(f"  {name:12} rank {alt_rank(p)}")
print("  (the rank separates orbit structure: in alt(n), pairs whose")
print("   connecting path has a different size lie in different orbits)")
