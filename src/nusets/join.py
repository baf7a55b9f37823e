"""The join that enumerates the frames of an indexed set (see ``frames``),
and the builders both presentations build their frames with.

A p-frame at n is one (n-1)-cell per face (q, w) with q < p, any two of
which agree on the codimension-2 face they share: its row, stratum-major
(face (q, w) at ``q * nu + w``). ``join`` finds the rows among the cells
one dimension down; ``equivalence`` reads each cell's off its face maps.
"""

from .values import FrameVal, LayerVal, PaintingVal, _intern


def suffixes(S, cells, p):
    """``[q][y]`` for q < p: cell y's painting from stratum q on, the
    strata of its frame from q on and its fibre rank, where ``cells`` lists
    each cell as (frame, rank)."""
    return [[_intern(S, PaintingVal(d.n, q, d.layers[q:], c))
             for d, c in cells] for q in range(p)]


def frames_of(S, n, p, rows, paintings):
    """The p-frame at n of each row, in order: component w of its layer q
    is ``paintings[q][y]`` of the cell y on face (q, w). Each layer is
    built once per stratum, however many rows share it."""
    nu = S.nu
    layers, out = [{} for _ in range(p)], []  # [q][ys]: one dict per q
    for row in rows:
        frame = []
        for q, made in enumerate(layers):
            ys = row[q * nu:(q + 1) * nu]
            if ys not in made:
                made[ys] = _intern(S, LayerVal(
                    n, q, tuple(paintings[q][y] for y in ys)))
            frame.append(made[ys])
        out.append(_intern(S, FrameVal(n, p, tuple(frame))))
    return out


def join(S, n, p, below, faces):
    """The p-frames at n, 1 <= p <= n, as an ordered table, by a join over
    the cells at n-1: ``below`` is their layout (``frames._cells``) and
    ``faces`` their face maps (``frames._faces``), which only p > 1
    reads.

    The cells y[j, w] and y[k, e] on two faces at strata j < k agree where
    they meet: the (k-1, e)-face of y[j, w] is the (j, w)-face of y[k, e],
    the exchange law d^e_{k-1} d^w_j = d^w_j d^e_k. The search binds the
    faces direction by direction, so that each one after the first meets
    a bound face at another stratum, and takes its candidates as the
    intersection of the index lists of those meetings. Each frame maps to
    its row, which is what ``frames._faces`` reads."""
    nu = S.nu
    paintings = suffixes(S, [(d, c) for d in below
                             for c in range(S.families[n - 1][d].size)], p)
    # (q, w) -> face at n-2 -> the cells with that (q, w)-face; the meets
    # below read it at strata q < p-1 only
    index = {}
    for q, maps in enumerate(faces[:p - 1]):
        for w, face in enumerate(maps):
            groups = index[q, w] = {}
            for y, z in enumerate(face):
                groups.setdefault(z, set()).add(y)
    order = [(q, w) for w in range(nu) for q in range(p)]
    everything, rows = range(len(paintings[0])), [()]
    for b, (k, e) in enumerate(order):
        # y[k, e] meets each bound y[j, w] with j != k: for j < k the
        # (k-1, e)-face of y[j, w] is its (j, w)-face, for j > k the
        # (k, e)-face of y[j, w] is its (j-1, w)-face
        meets = [(a, faces[k - 1][e], index[j, w]) if j < k else
                 (a, faces[k][e], index[j - 1, w])
                 for a, (j, w) in enumerate(order[:b]) if j != k]
        rows = [row + (y,) for row in rows
                for y in (set.intersection(*[groups.get(face[row[a]], set())
                                             for a, face, groups in meets])
                          if meets else everything)]
    # Enumeration order is lexicographic in the components, stratum by
    # stratum and direction by direction, each in its painting table's
    # order; a painting table lists the full frames over its base in
    # enumeration order, then their cells, which is layout order. So it
    # is the order of the bound cells read stratum-major.
    rows = sorted(tuple(row[w * p + q] for q in range(p) for w in range(nu))
                  for row in rows)
    return dict(zip(frames_of(S, n, p, rows, paintings), rows))
