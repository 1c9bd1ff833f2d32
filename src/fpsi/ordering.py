"""Nested-dissection ordering of a sparse matrix from its sparsity graph."""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

# Components of at most this many vertices are numbered as they are, in
# index order, instead of being dissected further.  On the stepper's graph
# of mesh nodes, 2 gives the smallest LU fill on both benchmark workloads;
# 1 orders alike, since two adjacent nodes are a dense component (see
# README).
LEAF_SIZE = 2


def nested_dissection(matrix):
    """Fill-reducing symmetric permutation of a square sparse ``matrix``.

    Returns ``perm``: ``matrix[perm][:, perm]`` is the reordered matrix.
    The ordering sees only the graph of the symmetrized sparsity pattern,
    so matrices of one pattern share it, whatever their values or storage.

    Every connected component of more than ``LEAF_SIZE`` vertices is split
    by the breadth-first levels from a pseudo-peripheral vertex: the vertex
    farthest from the component's lowest index (lowest index first among
    the farthest).  The vertices of the median level that touch the next
    level separate the levels below from those above; they are numbered
    after both halves, which are dissected in turn.  Smaller components,
    and components whose levels from that vertex are at most two (a dense
    block, which no level cuts), are numbered in index order.  One round
    treats all components at once, with breadth-first searches from a
    source joined to one vertex of each.
    """
    csc = sparse.csc_matrix(matrix)
    n = csc.shape[0]
    pattern = sparse.csr_matrix(
        (np.ones(csc.indices.size), csc.indices, csc.indptr), shape=(n, n))
    graph = (pattern + pattern.T).tocsr()
    graph.sum_duplicates()
    m = graph.nnz
    indptr = graph.indptr.astype(np.int32)
    # the adjacency, then room for the neighbours of the search source n
    adj = np.empty(m + n, dtype=np.int32)
    adj[:m] = graph.indices
    # where the mirror (j, i) of each entry (i, j) is stored
    mirror = sparse.csr_matrix(
        (np.arange(m, dtype=np.int32), graph.indices, graph.indptr),
        shape=(n, n)).T.tocsr().data
    ones = np.ones(m)
    live = np.diff(indptr) - (graph.diagonal() != 0)  # neighbours still open
    pos = np.full(n, -1, dtype=np.int64)   # place in the ordering; -1 while open
    part = np.zeros(n, dtype=np.int64)     # the part of the graph holding a vertex
    base = np.zeros(n, dtype=np.int64)     # the first place of that part
    while True:
        open_ = np.flatnonzero(pos < 0)
        if open_.size == 0:
            break
        # the components of every part: the isolated vertices, then in each
        # search the one holding the part's lowest unreached vertex
        comp = np.full(n, -1, dtype=np.int64)
        dist = np.zeros(n, dtype=np.int64)
        reps = [open_[live[open_] == 0]]
        comp[reps[0]] = np.arange(reps[0].size)
        count = reps[0].size
        while True:
            todo = open_[comp[open_] < 0]
            if todo.size == 0:
                break
            lowest = np.full(part.max() + 1, n)
            np.minimum.at(lowest, part[todo], todo)
            found = lowest < n
            ids = count + np.cumsum(found) - 1
            level = _levels(indptr, adj, m, lowest[found])
            reached = np.flatnonzero(level[:n] >= 0)
            comp[reached] = ids[part[reached]]
            dist[reached] = level[reached]
            reps.append(lowest[found])
            count += int(found.sum())
        reps = np.concatenate(reps)
        oc = comp[open_]
        size = np.bincount(oc, minlength=count)
        # a part's components follow one another from the part's first place
        order, _ = _group_rank(part[reps])
        ends = np.cumsum(size[order])
        before = ends - size[order]
        owner = part[reps][order]
        start = np.empty(count, dtype=np.int64)
        start[order] = (before - before[np.searchsorted(owner, owner)]
                        + base[reps[order]])
        big = size > LEAF_SIZE
        bv, bc = open_[big[oc]], oc[big[oc]]
        if bv.size:
            # search again from each large component's pseudo-peripheral vertex
            far = np.zeros(count, dtype=np.int64)
            np.maximum.at(far, bc, dist[bv])
            at_far = bv[dist[bv] == far[bc]]
            lowest = np.full(count, n)
            np.minimum.at(lowest, comp[at_far], at_far)
            level = _levels(indptr, adj, m, lowest[lowest < n])
            depth = np.zeros(count, dtype=np.int64)
            np.maximum.at(depth, bc, level[bv])
            big &= depth > 1
        leaf = ~big[oc]
        o, rank = _group_rank(oc[leaf])
        pos[open_[leaf][o]] = start[oc[leaf][o]] + rank
        bv, bc = open_[~leaf], oc[~leaf]
        if bv.size == 0:
            break
        bl = level[bv]
        # cut at the median level, and below the last one
        o = np.argsort(bc * (n + 1) + bl)
        sorted_level = bl[o]
        first = np.searchsorted(bc[o], np.arange(count))
        cut = np.zeros(count, dtype=np.int64)
        cut[big] = np.minimum(sorted_level[first[big] + (size[big] + 1) // 2 - 1],
                              sorted_level[first[big] + size[big] - 1] - 1)
        bcut = cut[bc]
        # the separator: vertices of the cut level with a neighbour above it
        above = np.zeros(n + 1)
        above[bv[bl == bcut + 1]] = 1.0
        touch = sparse.csr_matrix((ones, adj[:m], indptr), shape=(n, n + 1)) @ above
        sep = (bl == bcut) & (touch[bv] > 0)
        high = bl > bcut
        low = ~sep & ~high
        n_low = np.bincount(bc[low], minlength=count)
        n_high = np.bincount(bc[high], minlength=count)
        o, rank = _group_rank(bc[sep])
        sv, sc = bv[sep][o], bc[sep][o]
        pos[sv] = start[sc] + n_low[sc] + n_high[sc] + rank
        part[bv[low]], base[bv[low]] = 2 * bc[low], start[bc[low]]
        part[bv[high]] = 2 * bc[high] + 1
        base[bv[high]] = start[bc[high]] + n_low[bc[high]]
        # cut the separator out: its neighbours' edges to it lead to the source
        lens = indptr[sv + 1] - indptr[sv]
        entries = (np.repeat(indptr[sv] - (np.cumsum(lens) - lens), lens)
                   + np.arange(lens.sum()))
        adj[mirror[entries]] = n
        live -= np.bincount(adj[entries], minlength=n + 1)[:n]
    perm = np.empty(n, dtype=np.int64)
    perm[pos] = np.arange(n)
    return perm


def _levels(indptr, adj, m, starts):
    """Breadth-first level of every vertex from the nearest of ``starts``.

    The starts become the neighbours of an extra source, vertex n, stored
    after the ``m`` entries of ``adj``.  Returns n + 1 levels; the source
    and the vertices it does not reach get -1.
    """
    n = indptr.size - 1
    end = m + starts.size
    adj[m:end] = starts
    graph = sparse.csr_matrix(
        (np.broadcast_to(1.0, end), adj[:end], np.append(indptr, np.int32(end))),
        shape=(n + 1, n + 1))
    order, pred = csgraph.breadth_first_order(graph, n, return_predecessors=True)
    # the search visits level by level, and the places of the predecessors
    # never decrease along its order
    place = np.empty(n + 1, dtype=np.int64)
    place[order] = np.arange(order.size)
    parent = place[pred[order[1:]]]
    ends = [1]
    while ends[-1] < order.size:
        ends.append(1 + int(np.searchsorted(parent, ends[-1])))
    level = np.full(n + 1, -1, dtype=np.int64)
    level[order] = np.repeat(np.arange(len(ends)) - 1, np.diff(ends, prepend=0))
    return level


def _group_rank(groups):
    """Stable order of ``groups``, and the rank of each sorted entry in its group."""
    order = np.argsort(groups, kind="stable")
    g = groups[order]
    return order, np.arange(g.size) - np.searchsorted(g, g)
