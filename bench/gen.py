"""Seeded inputs for the kscert benchmark.

The generated ray sets come from kscert's public API (catalog entries,
Pauli matrices, ``ExactMatrix.apply``); their headline counts and the
orthogonality data used to check witnesses are computed here with
arithmetic of the benchmark's own, so a defect in kscert cannot hide
itself behind its own numbers.

* Peres-24 and Kernaghan-Peres-40 are the joint eigenbases of the
  contexts of the Mermin-Peres square and the Mermin pentagram: for each
  context the projectors prod_k (I + s_k A_k)/2 over its independent
  generators A_k (all members but the last, whose product with them is
  +-I) and all sign patterns s, each contributing its first nonzero
  column as a ray.  Peres, J. Phys. A 24, L175 (1991); Kernaghan and
  Peres, Phys. Lett. A 198, 1 (1995).
* Near-miss sets are cabello-18 and peres-33 with 1-3 seeded rays
  removed.  Both sets are critical (removing any single ray leaves a
  colourable set), so every near-miss set is colourable and `verify` and
  `derive` must answer with a witness.

The seed decides which rays a near-miss set drops and the unit phase
(1, -1, i or -i) each generated ray is written with.  A phase changes the
text of a ray but not its projector, so the work kscert does on Peres-24
and KP-40 is the same for every seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from kscert import Scalar, catalog

# -- exact arithmetic in Z[i, sqrt2], independent of kscert.exact -------------
# An element is a 4-tuple (a, b, c, d) of ints: a + b*r2 + (c + d*r2)*i.
# Orthogonality does not change when a vector is scaled, so each vector is
# first multiplied by the common denominator of its components.

_PHASES = ((1, 0), (-1, 0), (0, 1), (0, -1))  # 1, -1, i, -i as (re, im)


def _integral(vector) -> tuple:
    parts = [Fraction(p) for s in vector for p in (s.a, s.b, s.c, s.d)]
    den = math.lcm(*(p.denominator for p in parts))
    ints = [int(p * den) for p in parts]
    return tuple(tuple(ints[k : k + 4]) for k in range(0, len(ints), 4))


def _q_mul(x: tuple, y: tuple) -> tuple:
    a, b, c, d = x
    e, f, g, h = y
    return (
        a * e + 2 * b * f - c * g - 2 * d * h,
        a * f + b * e - c * h - d * g,
        a * g + 2 * b * h + c * e + 2 * d * f,
        a * h + b * g + c * f + d * e,
    )


def _q_inner(u, v) -> tuple:
    """sum_k conj(u_k) v_k."""
    acc = (0, 0, 0, 0)
    for x, y in zip(u, v):
        xc = (x[0], x[1], -x[2], -x[3])
        acc = tuple(p + q for p, q in zip(acc, _q_mul(xc, y)))
    return acc


def _cliques(adj: list, size: int) -> list:
    """All cliques of exactly `size` vertices, as increasing tuples."""
    out = []

    def grow(clique, cands):
        if len(clique) == size:
            out.append(clique)
            return
        for pos, v in enumerate(cands):
            grow(clique + (v,), [u for u in cands[pos + 1 :] if u in adj[v]])

    grow((), list(range(len(adj))))
    return out


@dataclass
class RaySet:
    """A ray set written to a proof file, with its independently computed
    orthogonality edges and bases (as label tuples)."""

    name: str
    dim: int
    labels: list
    vectors: list  # list of tuples of kscert Scalars
    edges: set = field(default_factory=set)
    bases: list = field(default_factory=list)
    path: str = ""

    def analyse(self):
        qs = [_integral(v) for v in self.vectors]
        adj = [set() for _ in qs]
        for i in range(len(qs)):
            for j in range(i + 1, len(qs)):
                if _q_inner(qs[i], qs[j]) == (0, 0, 0, 0):
                    adj[i].add(j)
                    adj[j].add(i)
        self.edges = {
            (self.labels[i], self.labels[j]) for i in range(len(qs)) for j in adj[i] if i < j
        }
        self.bases = [
            tuple(self.labels[i] for i in c) for c in _cliques(adj, self.dim)
        ]
        return self

    def write(self, directory: str) -> str:
        lines = [f"dim {self.dim}", "mode ray"]
        for label, v in zip(self.labels, self.vectors):
            lines.append(f"ray {label} " + " ".join(str(x) for x in v))
        self.path = os.path.join(directory, f"{self.name}.txt")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return self.path

    def witness_error(self, witness: dict):
        """None if `witness` (label -> value) is a valid {0,1} colouring:
        no orthogonal pair both 1 and exactly one 1 in every basis."""
        used = {l for e in self.edges for l in e} | {l for b in self.bases for l in b}
        missing = used - set(witness)
        if missing:
            return f"witness leaves {sorted(missing)} unassigned"
        if any(v not in (0, 1) for v in witness.values()):
            return "witness value outside {0,1}"
        for i, j in self.edges:
            if witness[i] == 1 and witness[j] == 1:
                return f"orthogonal rays {i} and {j} both 1"
        for b in self.bases:
            if sum(witness[l] for l in b) != 1:
                return f"basis {b} does not carry exactly one 1"
        return None


def context_eigenrays(oset, phases) -> list:
    """Rays of the joint eigenbases of a parity proof's contexts."""
    n = oset.dim
    half = Scalar(Fraction(1, 2))
    rays = []
    for ids in oset.declared_contexts:
        gens = [oset[i].matrix for i in ids[:-1]]
        if 2 ** len(gens) != n:
            raise RuntimeError(f"context {ids} does not fix a basis")
        for pattern in range(n):
            signs = [-1 if (pattern >> k) & 1 else 1 for k in range(len(gens))]
            for col in range(n):
                v = tuple(Scalar(int(k == col)) for k in range(n))
                for g, s in zip(gens, signs):
                    gv = g.apply(v)
                    v = tuple((x + y * s) * half for x, y in zip(v, gv))
                if any(not x.is_zero for x in v):
                    break
            else:
                raise RuntimeError(f"context {ids}: zero eigenprojector")
            lead = next(x for x in v if not x.is_zero)
            re, im = phases[len(rays)]
            u = Scalar(re, 0, im, 0) / lead
            rays.append(tuple(x * u for x in v))
    return rays


def generated_set(name, source, prefix, rng, counts) -> RaySet:
    """Peres-24 or KP-40 from a parity proof's observable set; `counts` =
    (rays, edges, bases), checked here."""
    phases = [_PHASES[rng.randrange(4)] for _ in range(counts[0])]
    vectors = context_eigenrays(source, phases)
    rs = RaySet(
        name=name,
        dim=len(vectors[0]),
        labels=[f"{prefix}{k + 1}" for k in range(len(vectors))],
        vectors=vectors,
    ).analyse()
    got = (len(rs.vectors), len(rs.edges), len(rs.bases))
    if got != tuple(counts):
        raise RuntimeError(f"{name}: rays/edges/bases {got}, expected {tuple(counts)}")
    return rs


def near_miss_set(full: RaySet, tag, rng) -> RaySet:
    """`full` less 1-3 seeded rays; its edges and bases are those of `full`
    that avoid the dropped rays."""
    drop = set(rng.sample(full.labels, rng.randint(1, 3)))
    keep = [k for k, label in enumerate(full.labels) if label not in drop]
    return RaySet(
        name=f"{full.name}-minus-{tag}",
        dim=full.dim,
        labels=[full.labels[k] for k in keep],
        vectors=[full.vectors[k] for k in keep],
        edges={e for e in full.edges if not drop & set(e)},
        bases=[b for b in full.bases if not drop & set(b)],
    )


@dataclass
class Inputs:
    catalog_rays: dict  # catalog ray sets by name (analysed, not written)
    peres24: RaySet
    kp40: RaySet
    near_miss: list  # list[RaySet]


NEAR_MISS_PER_SET = 3


def make_inputs(rng, directory: str) -> Inputs:
    """Every generated input, written to `directory`.  Raises on a count
    that differs from the published one."""
    os.makedirs(directory, exist_ok=True)
    osets = {name: catalog.get(name).load() for name in catalog.names()}
    catalog_rays = {
        name: RaySet(
            name=name,
            dim=osets[name].dim,
            labels=osets[name].labels,
            vectors=[o.ray.vector for o in osets[name].observables],
        ).analyse()
        for name in ("cabello-18", "peres-33")
    }
    peres24 = generated_set("peres-24", osets["mermin-peres"], "p", rng, (24, 108, 24))
    kp40 = generated_set("kp-40", osets["mermin-pentagram"], "k", rng, (40, 460, 25))
    # the ray-set complete set is one polynomial per edge and per basis
    if len(kp40.edges) + len(kp40.bases) != 485:
        raise RuntimeError("kp-40: complete set is not 485 polynomials")
    near = [
        near_miss_set(catalog_rays[name], k + 1, rng)
        for name in ("cabello-18", "peres-33")
        for k in range(NEAR_MISS_PER_SET)
    ]
    for rs in [peres24, kp40, *near]:
        rs.write(directory)
    return Inputs(catalog_rays=catalog_rays, peres24=peres24, kp40=kp40, near_miss=near)
