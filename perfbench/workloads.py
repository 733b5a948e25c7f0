"""Seeded inputs, per-item pipelines and the correctness gate of each workload.

Inputs are generated with the standard library only and handed to the
program as objects or as instance text files; the program never sees the
seed.  Every vertex value is a multiple of 1/64, so all values and their
differences are exact in double precision and an output digest can be
compared bit for bit.

Each workload is a class with three parts:

* ``generate(seed, work_dir)`` builds the pool of item inputs (and writes
  any files) in the benchmark's set-up phase;
* ``run(api, item)`` runs one item through the program's public API and
  returns its outputs as plain data;
* ``check(output)`` is the gate: it returns the reasons the output is
  wrong, an empty list when every oracle agrees.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
import shutil
from pathlib import Path


def dyadic(rng: random.Random, lo: int = -128, hi: int = 128) -> float:
    """A value k/64 with lo <= k <= hi."""
    return rng.randint(lo, hi) / 64.0


def item_rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def digest(parts) -> str:
    """Short hash of a list of strings; repr() of a float is exact."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def write_instance(path: Path, values, simplices) -> None:
    lines = [f"n {len(values)}"]
    lines.extend(repr(v) for v in values)
    lines.extend("s " + " ".join(map(str, s)) for s in simplices)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def freudenthal_cube(side: int) -> list[tuple[int, ...]]:
    """Tetrahedra of the Freudenthal triangulation of a side^3 vertex grid."""
    def vid(i, j, k):
        return (i * side + j) * side + k

    tets = []
    for i, j, k in itertools.product(range(side - 1), repeat=3):
        for perm in itertools.permutations(range(3)):
            corner = [i, j, k]
            verts = [vid(*corner)]
            for axis in perm:
                corner[axis] += 1
                verts.append(vid(*corner))
            tets.append(tuple(verts))
    return tets


def triangulated_grid(side: int) -> list[tuple[int, int, int]]:
    """Two triangles per square of a side x side vertex grid."""
    tris = []
    for i in range(side - 1):
        for j in range(side - 1):
            a, b = i * side + j, i * side + j + 1
            c, d = a + side, b + side
            tris.append((a, b, d))
            tris.append((a, c, d))
    return tris


def connected_simplices(
    rng: random.Random, n: int, edge_rate: float, triangle_rate: float
) -> list[tuple[int, ...]]:
    """A random spanning tree plus random extra edges and triangles."""
    simplices = [(rng.randrange(v), v) for v in range(1, n)]
    simplices += [tuple(rng.sample(range(n), 2)) for _ in range(int(n * edge_rate))]
    if n >= 3:
        simplices += [tuple(rng.sample(range(n), 3)) for _ in range(int(n * triangle_rate))]
    return simplices


def basin_values(rng: random.Random, n: int, simplices, basins: int) -> list[float]:
    """Dyadic values whose only local minima are at most ``basins`` vertices.

    A breadth-first search from the basin vertices gives every other vertex
    a parent one step closer to its basin, and the value grows with that
    distance, so every other vertex has a strictly lower neighbour.  The
    sublevel merge tree then has at most ``basins`` leaves.
    """
    neighbours = [set() for _ in range(n)]
    for s in simplices:
        for a, b in itertools.combinations(s, 2):
            neighbours[a].add(b)
            neighbours[b].add(a)
    sources = rng.sample(range(n), basins)
    base = {b: dyadic(rng) for b in sources}
    step = {b: rng.randint(1, 16) / 64.0 for b in sources}
    owner = {b: (b, 0) for b in sources}  # vertex -> (its basin, distance)
    frontier = sources
    while frontier:
        nxt = []
        for v in frontier:
            b, d = owner[v]
            for w in sorted(neighbours[v]):
                if w not in owner:
                    owner[w] = (b, d + 1)
                    nxt.append(w)
        frontier = nxt
    return [base[b] + d * step[b] for b, d in (owner[v] for v in range(n))]


def diagram_text(diagrams) -> list[str]:
    return [f"{d.degree} {b!r} {e!r}" for d in diagrams for b, e in d.points]


class VolumeDiagrams:
    """One dyadic noise field per item on a Freudenthal-triangulated cube.

    Construction and reduction dominate and no bottleneck is computed; the
    3-D complex gives the reduction column additions in degrees 1 and 2.
    """

    name = "volume_diagrams"

    def __init__(self, side: int = 12, pool: int = 64):
        self.side = side
        self.pool = pool

    def generate(self, seed: int, work_dir: Path) -> list[dict]:
        tets = freudenthal_cube(self.side)
        n = self.side ** 3
        items = []
        for i in range(self.pool):
            rng = item_rng(self.name, seed, i)
            items.append({"tets": tets, "n": n, "values": [dyadic(rng) for _ in range(n)]})
        return items

    def run(self, api, item: dict) -> dict:
        complex = api.build_complex(item["tets"], vertex_count=item["n"])
        fc = api.lower_star(complex, api.VertexFunction(item["values"]))
        diagrams = api.compute_diagrams(fc, max_degree=2)
        h0_uf = api.h0_diagram_unionfind(fc)
        tree = api.build_merge_tree(fc)
        readout = api.diagram_from_tree(tree)
        return {
            "diagrams": diagram_text(diagrams),
            "h0_reduction": sorted(diagrams[0].points),
            "h0_unionfind": sorted(h0_uf.points),
            "h0_tree": sorted(readout.points),
            "tree": [f"{k} {tree.heights[k]!r} {tree.parent.get(k)}" for k in sorted(tree.heights)],
        }

    def check(self, out: dict) -> list[str]:
        bad = []
        if out["h0_reduction"] != out["h0_unionfind"]:
            bad.append("H0 by reduction differs from union-find")
        if out["h0_tree"] != out["h0_unionfind"]:
            bad.append("merge-tree readout differs from union-find")
        return bad

    def output_digest(self, out: dict) -> str:
        return digest(out["diagrams"] + out["tree"])

    def corrupt(self, out: dict) -> dict:
        """The output with its first H0 birth moved up by one ulp."""
        b, d = out["h0_reduction"][0]
        nudged = (math.nextafter(b, math.inf), d)
        return dict(out, h0_reduction=[nudged] + out["h0_reduction"][1:],
                    diagrams=[f"0 {nudged[0]!r} {d!r}"] + out["diagrams"][1:])


class SurfaceBottleneck:
    """`topodist bottleneck X Y --max-degree 1` plus `linf` on grid pairs.

    g is f plus a small dyadic perturbation on the same triangulated grid;
    the bottleneck matchings in degrees 0 and 1 dominate each item.
    """

    name = "surface_bottleneck"

    def __init__(self, side: int = 40, pool: int = 24):
        self.side = side
        self.pool = pool

    def generate(self, seed: int, work_dir: Path) -> list[dict]:
        tris = triangulated_grid(self.side)
        n = self.side ** 2
        items = []
        for i in range(self.pool):
            rng = item_rng(self.name, seed, i)
            f = [dyadic(rng) for _ in range(n)]
            g = [v + dyadic(rng, -8, 8) for v in f]
            x, y = work_dir / f"{i:03d}_x.txt", work_dir / f"{i:03d}_y.txt"
            write_instance(x, f, tris)
            write_instance(y, g, tris)
            items.append({"x": x, "y": y})
        return items

    def run(self, api, item: dict) -> dict:
        kx, f = api.load_instance(item["x"])
        ky, g = api.load_instance(item["y"])
        dx = api.compute_diagrams(api.lower_star(kx, f), max_degree=1)
        dy = api.compute_diagrams(api.lower_star(ky, g), max_degree=1)
        out = {"bottleneck": [], "points": []}
        for k in (0, 1):
            value, _ = api.bottleneck_distance(dx[k], dy[k])
            out["bottleneck"].append(value)
            out["points"].append(len(dx[k]) + len(dy[k]))
        out["linf"] = api.linf_distance(f, g)
        return out

    def check(self, out: dict) -> list[str]:
        return [
            f"bottleneck{k} {db!r} > linf {out['linf']!r}"
            for k, db in enumerate(out["bottleneck"])
            if not db <= out["linf"]
        ]

    def output_digest(self, out: dict) -> str:
        return digest([repr(v) for v in out["bottleneck"]] + [repr(out["linf"])]
                      + [str(p) for p in out["points"]])

    def corrupt(self, out: dict) -> dict:
        """The output with the degree-1 bottleneck value nudged up by one ulp."""
        b = list(out["bottleneck"])
        b[1] = math.nextafter(b[1], math.inf)
        return dict(out, bottleneck=b)


# X of an expansion pair: the filled triangle, or one of the three 4-vertex
# complexes that a random spanning tree plus one edge and one triangle gives
# (a triangle with a pendant edge, 41% of them; with two extra edges, 48%;
# the complete graph, 11%).
EXPANSION_SHAPES = (
    [(0, 1, 2)],
    [(0, 1, 2), (2, 3)],
    [(0, 1, 2), (1, 3), (2, 3)],
    [(0, 1, 2), (0, 3), (1, 3), (2, 3)],
)
# Shapes of the k-th expansion pair, in turn: the costly pendant shape (1) is
# spread evenly and recurs every ten expansion pairs, so any stretch of a run
# holds the shapes in nearly fixed shares (40/40/20 for the 4-vertex ones).
EXPANSION_PLAN = (0, 1, 0, 2, 0, 1, 0, 2, 0, 3)
# (|X|, |Y|) of the k-th tiny pair, in turn: all nine sizes, the costly ones
# (with 5 vertices on one side and 4-5 on the other) spread out.
TINY_SIZES = ((3, 3), (5, 5), (3, 4), (4, 5), (4, 3), (5, 4), (3, 5), (4, 4), (5, 3))
# Local minima per desk function.  Random values on desk complexes hit the
# exponential case of exact interleaving (minutes for one pair of 12-node
# trees); at most 4 minima keeps the trees at 7 nodes or fewer.
DESK_BASINS = 4
# Distinct desk pairs per seed.  Desk pairs are cheap and alike (4-6 ms), so
# the items cycle through this many, which keeps the files a set-up writes
# (and a run deletes) few; expansion and tiny pairs are distinct per item.
DESK_POOL = 64


class DeskCorpus:
    """`topodist corpus DIR`, in-process, one corpus pair per item.

    The pool holds the shipped pairs, then cycles through three seeded kinds:
    expansion pairs (X on 3-4 vertices, Y = X with a vertex coned onto an
    edge), random tiny pairs on 3-5 vertices, and desk pairs: independent
    sparse complexes on 10-20 vertices whose functions have at most
    DESK_BASINS local minima, so exact interleaving runs on merge trees of
    at most 2 * DESK_BASINS - 1 nodes.  The exponential enumerations
    dominate.
    """

    name = "desk_corpus"
    # Desk pairs are three in five seeded pairs, so the median item falls
    # inside their narrow latency cluster instead of on the edge between kinds.
    kinds = ("expansion", "desk", "tiny", "desk", "desk")

    def __init__(self, shipped: Path, pool: int = 505, tiny_max: int = 5, desk_range=(10, 20)):
        self.shipped = shipped
        self.pool = pool
        self.tiny_max = tiny_max
        self.desk_range = desk_range

    def pair(self, rng: random.Random, kind: str, k: int):
        """The k-th seeded pair of a kind: (f, simplices of X, g, simplices of Y).

        Shapes of expansion pairs and vertex counts of tiny pairs cycle with
        k, so each run holds them in fixed shares.
        """
        if kind == "expansion":
            xs = EXPANSION_SHAPES[EXPANSION_PLAN[k % len(EXPANSION_PLAN)]]
            n = 1 + max(max(s) for s in xs)
            a, b = rng.choice(sorted({e for s in xs for e in itertools.combinations(s, 2)}))
            relabel = rng.sample(range(n), n)
            xs = [tuple(relabel[v] for v in s) for s in xs]
            f = [dyadic(rng) for _ in range(n)]
            return f, xs, f + [dyadic(rng)], xs + [(relabel[a], relabel[b], n)]
        if kind == "tiny":
            sizes = [s for s in TINY_SIZES if max(s) <= self.tiny_max]
            nx, ny = sizes[k % len(sizes)]
            xs = connected_simplices(rng, nx, 0.4, 0.4)
            ys = connected_simplices(rng, ny, 0.4, 0.4)
            return [dyadic(rng) for _ in range(nx)], xs, [dyadic(rng) for _ in range(ny)], ys
        nx, ny = rng.randint(*self.desk_range), rng.randint(*self.desk_range)
        xs = connected_simplices(rng, nx, 0.2, 0.1)
        ys = connected_simplices(rng, ny, 0.2, 0.1)
        f = basin_values(rng, nx, xs, rng.randint(1, DESK_BASINS))
        g = basin_values(rng, ny, ys, rng.randint(1, DESK_BASINS))
        return f, xs, g, ys

    def generate(self, seed: int, work_dir: Path) -> list[dict]:
        """One corpus directory per distinct pair; an item names the one it runs."""
        shipped = sorted(d for d in self.shipped.iterdir() if d.is_dir())
        items = []
        written = set()
        for i in range(self.pool):
            if i < len(shipped):
                item_dir = work_dir / f"{i:03d}"
                shutil.copytree(shipped[i], item_dir / shipped[i].name, dirs_exist_ok=True)
                items.append({"dir": item_dir})
                continue
            cycle, j = divmod(i - len(shipped), len(self.kinds))
            kind = self.kinds[j]
            k = cycle * self.kinds.count(kind) + self.kinds[:j].count(kind)
            name = f"desk_{k % DESK_POOL:03d}" if kind == "desk" else f"{kind}_{i:03d}"
            item_dir = work_dir / name
            if name not in written:
                written.add(name)
                key = name if kind == "desk" else i
                f, xs, g, ys = self.pair(item_rng(self.name, seed, key), kind, k)
                (item_dir / name).mkdir(parents=True, exist_ok=True)
                write_instance(item_dir / name / "x.txt", f, xs)
                write_instance(item_dir / name / "y.txt", g, ys)
            items.append({"dir": item_dir})
        return items

    def run(self, api, item: dict) -> dict:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = api.cli_main(["corpus", str(item["dir"])])
        return {"exit": code, "lines": stdout.getvalue().splitlines()}

    def check(self, out: dict) -> list[str]:
        bad = [] if out["exit"] == 0 else [f"corpus exit code {out['exit']}"]
        for line in out["lines"]:
            # `pair<TAB>check<TAB>name<TAB>status[<TAB>detail]`, `pair<TAB>result<TAB>status`
            fields = line.split("\t")
            status = {"check": 3, "result": 2}.get(fields[1] if len(fields) > 1 else "")
            if status is not None and fields[status] != "pass":
                bad.append(line)
        if not any(line == "corpus\tresult\tpass" for line in out["lines"]):
            bad.append("no passing corpus result line")
        return bad

    def output_digest(self, out: dict) -> str:
        return digest([str(out["exit"])] + out["lines"])

    def corrupt(self, out: dict) -> dict:
        """The output with its first reported value changed in the last digit."""
        lines = list(out["lines"])
        for i, line in enumerate(lines):
            fields = line.split("\t")
            if fields[1] == "value" and fields[3] != "inf":
                fields[3] = repr(math.nextafter(float(fields[3]), math.inf))
                lines[i] = "\t".join(fields)
                break
        return dict(out, lines=lines)
