"""Structural graph generators.

Each generator returns a :class:`~repro.sparse.coo.COOMatrix` adjacency of
the requested size.  The generators cover the structural families present in
the paper's Table 1 suite:

* ``mesh_graph_2d`` / ``mesh_graph_3d`` — FEM / discretisation matrices
  (2cubes_sphere, filter3D, poisson3Da, offshore, m133-b3, mario002);
  banded, near-regular degree.
* ``barabasi_albert_graph`` / ``kronecker_power_law_graph`` — social and web
  graphs (facebook, wiki-Vote, email-Enron, web-Google, amazon0312,
  ca-CondMat); heavy-tailed degree distributions.  Preferential attachment
  runs in O(n * attach): ``rng.integers`` draws into one edge-endpoint array.
* ``road_network_graph`` — roadNet-CA; planar, low and nearly uniform degree.
* ``small_world_graph`` — p2p-Gnutella31; random with local clustering.
* ``circuit_graph`` — scircuit, patents_main; strong diagonal plus sparse
  random fill.
* ``erdos_renyi_graph`` — uniform random baseline.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix


def _dedupe_edges(src: np.ndarray, dst: np.ndarray, n: int,
                  remove_self_loops: bool = True) -> np.ndarray:
    """Return unique (src, dst) pairs as an (m, 2) array."""
    keep = np.ones(src.size, dtype=bool)
    if remove_self_loops:
        keep &= src != dst
    src, dst = src[keep], dst[keep]
    keys = src.astype(np.int64) * n + dst.astype(np.int64)
    unique = np.unique(keys)
    return np.stack([unique // n, unique % n], axis=1)


def _edges_to_coo(edges: np.ndarray, n: int, symmetric: bool,
                  rng: np.random.Generator) -> COOMatrix:
    """Convert an (m, 2) edge array to a weighted COO adjacency."""
    if symmetric and edges.size:
        edges = np.concatenate([edges, edges[:, ::-1]], axis=0)
        edges = _dedupe_edges(edges[:, 0], edges[:, 1], n)
    values = np.ones(len(edges), dtype=np.float64)
    return COOMatrix.from_edges(edges, (n, n), values)


def erdos_renyi_graph(n: int, m: int, seed: int = 0,
                      symmetric: bool = True) -> COOMatrix:
    """Uniform random graph with ~``m`` directed edges over ``n`` nodes."""
    if n <= 1 or m <= 0:
        return COOMatrix.empty((max(n, 1), max(n, 1)))
    rng = np.random.default_rng(seed)
    # Oversample to compensate for duplicates and self loops.
    src = rng.integers(0, n, size=int(m * 1.3) + 8)
    dst = rng.integers(0, n, size=src.size)
    edges = _dedupe_edges(src, dst, n)[:m]
    return _edges_to_coo(edges, n, symmetric, rng)


def barabasi_albert_graph(n: int, attach: int, seed: int = 0,
                          symmetric: bool = True) -> COOMatrix:
    """Preferential-attachment graph (heavy-tailed degree distribution).

    Each new node attaches to ``attach`` existing nodes chosen with
    probability proportional to their current degree: it draws
    ``rng.integers(0, filled, size=attach)`` indices into one array of edge
    endpoints (Batagelj and Brandes, Phys. Rev. E 71, 036113), the draw
    ``rng.choice(pool, size=attach)`` makes, so it runs in O(n * attach).
    """
    if n <= 1:
        return COOMatrix.empty((max(n, 1), max(n, 1)))
    attach = max(1, min(attach, n - 1))
    rng = np.random.default_rng(seed)
    pool = np.empty(attach + 2 * attach * (n - attach), dtype=np.int64)
    pool[:attach] = np.arange(attach)
    src = np.empty(attach * (n - attach), dtype=np.int64)
    dst = np.empty_like(src)
    filled, m = attach, 0
    for v in range(attach, n):
        chosen = np.unique(pool[rng.integers(0, filled, size=attach)])
        k = chosen.size
        src[m:m + k] = v
        dst[m:m + k] = chosen
        pool[filled:filled + 2 * k:2] = chosen
        pool[filled + 1:filled + 2 * k:2] = v
        filled += 2 * k
        m += k
    edge_arr = _dedupe_edges(src[:m], dst[:m], n)
    return _edges_to_coo(edge_arr, n, symmetric, rng)


def kronecker_power_law_graph(n: int, m: int, seed: int = 0,
                              a: float = 0.57, b: float = 0.19,
                              c: float = 0.19, symmetric: bool = False) -> COOMatrix:
    """R-MAT / Kronecker-style generator used for web-scale power-law graphs."""
    if n <= 1 or m <= 0:
        return COOMatrix.empty((max(n, 1), max(n, 1)))
    rng = np.random.default_rng(seed)
    levels = int(np.ceil(np.log2(n)))
    d = 1.0 - a - b - c
    probs = np.array([a, b, c, d])
    n_samples = int(m * 1.4) + 8
    src = np.zeros(n_samples, dtype=np.int64)
    dst = np.zeros(n_samples, dtype=np.int64)
    for level in range(levels):
        quadrant = rng.choice(4, size=n_samples, p=probs)
        bit = 1 << (levels - level - 1)
        src += np.where((quadrant == 2) | (quadrant == 3), bit, 0)
        dst += np.where((quadrant == 1) | (quadrant == 3), bit, 0)
    keep = (src < n) & (dst < n)
    edges = _dedupe_edges(src[keep], dst[keep], n)[:m]
    return _edges_to_coo(edges, n, symmetric, rng)


def mesh_graph_2d(n: int, bandwidth: int = 1, seed: int = 0) -> COOMatrix:
    """2-D five-point-stencil mesh (FEM-style banded matrix).

    Nodes are laid out on a near-square grid; each node connects to its grid
    neighbours within ``bandwidth`` steps along each axis.
    """
    if n <= 1:
        return COOMatrix.empty((max(n, 1), max(n, 1)))
    side = int(np.ceil(np.sqrt(n)))
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for node in range(n):
        r, c = divmod(node, side)
        for dr in range(-bandwidth, bandwidth + 1):
            for dc in range(-bandwidth, bandwidth + 1):
                if dr == 0 and dc == 0:
                    continue
                nr, nc = r + dr, c + dc
                if 0 <= nr < side and 0 <= nc < side:
                    neighbour = nr * side + nc
                    if neighbour < n:
                        edges.append((node, neighbour))
    edge_arr = _dedupe_edges(np.array([e[0] for e in edges], dtype=np.int64),
                             np.array([e[1] for e in edges], dtype=np.int64), n)
    return _edges_to_coo(edge_arr, n, True, rng)


def mesh_graph_3d(n: int, seed: int = 0) -> COOMatrix:
    """3-D seven-point-stencil mesh (volumetric FEM discretisation)."""
    if n <= 1:
        return COOMatrix.empty((max(n, 1), max(n, 1)))
    side = int(np.ceil(n ** (1.0 / 3.0)))
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for node in range(n):
        z, rem = divmod(node, side * side)
        y, x = divmod(rem, side)
        for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                           (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            nz, ny, nx = z + dz, y + dy, x + dx
            if 0 <= nz < side and 0 <= ny < side and 0 <= nx < side:
                neighbour = nz * side * side + ny * side + nx
                if neighbour < n:
                    edges.append((node, neighbour))
    edge_arr = _dedupe_edges(np.array([e[0] for e in edges], dtype=np.int64),
                             np.array([e[1] for e in edges], dtype=np.int64), n)
    return _edges_to_coo(edge_arr, n, True, rng)


def road_network_graph(n: int, rewire_fraction: float = 0.02,
                       seed: int = 0) -> COOMatrix:
    """Planar-like road network: 4-neighbour grid with a few random shortcuts.

    Road networks have very low, near-uniform degree (roadNet-CA averages
    about 2.8), so only the orthogonal grid neighbours are connected.
    """
    if n <= 1:
        return COOMatrix.empty((max(n, 1), max(n, 1)))
    side = int(np.ceil(np.sqrt(n)))
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for node in range(n):
        r, c = divmod(node, side)
        for dr, dc in ((0, 1), (1, 0)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < side and 0 <= nc < side:
                neighbour = nr * side + nc
                if neighbour < n:
                    edges.append((node, neighbour))
    edge_arr = np.array(edges, dtype=np.int64) if edges else np.zeros((0, 2), np.int64)
    if n > 4 and rewire_fraction > 0:
        n_extra = max(1, int(len(edges) * rewire_fraction))
        src = rng.integers(0, n, size=n_extra)
        dst = rng.integers(0, n, size=n_extra)
        extra = _dedupe_edges(src, dst, n)
        edge_arr = np.concatenate([edge_arr, extra], axis=0)
    edge_arr = _dedupe_edges(edge_arr[:, 0], edge_arr[:, 1], n)
    return _edges_to_coo(edge_arr, n, True, rng)


def small_world_graph(n: int, k: int = 4, rewire_prob: float = 0.3,
                      seed: int = 0) -> COOMatrix:
    """Watts-Strogatz-style small-world graph (peer-to-peer topology)."""
    if n <= 1:
        return COOMatrix.empty((max(n, 1), max(n, 1)))
    k = max(2, min(k, n - 1))
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for node in range(n):
        for offset in range(1, k // 2 + 1):
            neighbour = (node + offset) % n
            if rng.random() < rewire_prob:
                neighbour = int(rng.integers(0, n))
            if neighbour != node:
                edges.append((node, neighbour))
    edge_arr = _dedupe_edges(np.array([e[0] for e in edges], dtype=np.int64),
                             np.array([e[1] for e in edges], dtype=np.int64), n)
    return _edges_to_coo(edge_arr, n, True, rng)


def circuit_graph(n: int, fill_per_row: float = 2.5, seed: int = 0) -> COOMatrix:
    """Circuit / netlist-style matrix: dense-ish diagonal band plus random fill."""
    if n <= 1:
        return COOMatrix.empty((max(n, 1), max(n, 1)))
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for node in range(n):
        edges.append((node, node))
        if node + 1 < n:
            edges.append((node, node + 1))
            edges.append((node + 1, node))
    n_fill = int(n * fill_per_row)
    src = rng.integers(0, n, size=n_fill)
    dst = rng.integers(0, n, size=n_fill)
    fill = np.stack([src, dst], axis=1)
    all_edges = np.concatenate([np.array(edges, dtype=np.int64), fill], axis=0)
    edge_arr = _dedupe_edges(all_edges[:, 0], all_edges[:, 1], n,
                             remove_self_loops=False)
    return COOMatrix.from_edges(edge_arr, (n, n))


def dense_matrix(n: int, seed: int = 0) -> COOMatrix:
    """Fully dense matrix, used for the dense column of Figure 13."""
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) + 0.01
    return COOMatrix.from_dense(dense)
