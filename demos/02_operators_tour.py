"""A tour of the search operators with hand-picked inputs.

Shows the two movement rules (inside/outside the safe zone), the battle
rules against stronger and weaker enemies, and the merged variant's
differential mutation and heavy-tailed exploration step. The operators
take rows of a position array, the fitnesses where a rule reads them,
and a generator; each returns an unclamped proposal.
"""

import numpy as np

import battleopt as bo
from battleopt.core import make_rng

rng = make_rng(0)

# A population of three: positions as the rows of X, fitnesses in F.
X = np.array([[2.0, -1.0], [5.0, 3.0], [1.0, 1.0]])
F = [1.0, 9.0, 4.0]
best, worst = bo.best_worst(F)
print(f"best is member {best}, worst is member {worst} (lowest index on ties)")

# --- the safe zone -----------------------------------------------------------
radius = bo.safe_zone_radius(X[best], X[worst], rng)
print(f"safe zone: center {X[best]}, radius {radius:.3f} "
      f"(||best-worst|| = 5, amplified by delta ~ U(0.8, 1.2))")

member = X[2]
print(f"member at {member} inside? {bo.in_safe_zone(member, X[best], radius)}\n")

# --- movement rules -----------------------------------------------------------
print("in-zone move, x + x_best*sin(2 pi r), five draws:")
for _ in range(5):
    print("  ->", bo.move_inside(member, X[best], rng))

print("out-of-zone move (per-dimension jitter or pull toward best):")
far = np.array([60.0, -70.0])
print(f"  (a member at {far} inside? {bo.in_safe_zone(far, X[best], radius)})")
for _ in range(3):
    print("  ->", bo.move_outside(far, X[best], rng))

# --- battle rules ---------------------------------------------------------------
enemy, enemy_fitness = np.array([2.5, -1.5]), 2.0
direction = bo.battle_dir(member, 4.0, enemy, enemy_fitness)
print(f"\nbattle direction (enemy fitter): {direction}")
print("vs stronger:", bo.battle_vs_stronger(member, enemy, direction, rng))
direction = bo.battle_dir(member, 4.0, np.array([5.0, 5.0]), 8.0)
print("vs weaker:  ", bo.battle_vs_weaker(member, direction, rng))
print("member 2 against a random enemy:", bo.battle(X, F, 2, rng))

# --- the merged variant's movement operators -------------------------------------
centroid = X.mean(axis=0)
print(f"\ndifferential mutation toward best and centroid {centroid}:")
for _ in range(3):
    print("  ->", bo.diff_mutation(member, X[best], centroid, rng))

print("levy exploration step (occasionally jumps far):")
steps = [bo.levy_move(member, 1.5, rng) for _ in range(2000)]
largest = max(float(np.max(np.abs(s - member))) for s in steps)
print(f"  2000 steps from {member}: largest single-coordinate jump {largest:.1f}")
