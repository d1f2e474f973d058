"""Cyclic covers of a closed surface, unrolled along a non-separating curve.

A degree-d cover is built from d copies of the surface cut open along
the curve: the right boundary circle of copy k is glued to the left
boundary circle of copy k+1 (mod d), edge for edge.  Faces are laid out
copy-major, so the generating deck transformation is the index shift
f -> f + F_cut (mod d * F_cut) on faces.

For d = (n+1) * N the cover carries n+1 pieces, each a block of N
consecutive copies, and n+1 designated lifts of the curve: lift i is
the seam where piece i meets piece i+1 (cyclically), sitting at copy
i*N mod d.  All lifts carry the same edge lengths as the base curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surface import CutSurface, MeshCurve, MeshError, TriangulatedSurface, cut_along

__all__ = ["CoverError", "CoverSurface", "cyclic_cover", "verify_deck_symmetry"]


class CoverError(MeshError):
    """The cover construction or its symmetry checks failed."""


@dataclass
class CoverSurface:
    """A cyclic cover together with its deck map, pieces, and lifts.

    piece[f] is in 1..n+1; lifts[i-1] is the curve lift bounding piece i
    and piece i+1 (cyclically).  base_face and copy_index identify where
    each cover face came from; deck_face and deck_vertex give the
    generating deck transformation.  cut is the base cut open along the
    curve, and copy_vertex[k, j] is the cover vertex of cut vertex j in
    copy k, so deck_vertex maps copy_vertex[k] to copy_vertex[k+1].
    """

    surface: TriangulatedSurface
    base: TriangulatedSurface
    n: int
    N: int
    degree: int
    base_face: np.ndarray
    copy_index: np.ndarray
    piece: np.ndarray
    deck_face: np.ndarray
    deck_vertex: np.ndarray
    lifts: list
    cut: CutSurface
    copy_vertex: np.ndarray


def cyclic_cover(surface: TriangulatedSurface, curve: MeshCurve, n: int, N: int) -> CoverSurface:
    """Build the degree-(n+1)N cyclic cover of `surface` along `curve`."""
    if n < 0 or N < 1:
        raise CoverError("need n >= 0 pieces beyond the first and N >= 1 copies per piece")
    d = (n + 1) * N
    cut = cut_along(surface, curve)
    Fc = surface.num_faces
    Vc = cut.num_vertices
    c = len(curve.edges)

    faces = (np.arange(d)[:, None, None] * Vc + cut.faces[None, :, :]).reshape(d * Fc, 3)
    lengths = np.tile(cut.lengths, (d, 1))

    glue = np.tile(cut.glue, (d, 1, 1, 1)).reshape(d * Fc, 3, 2)
    interior = np.tile(cut.glue[..., 0] >= 0, (d, 1, 1)).reshape(d * Fc, 3)
    off = np.repeat(np.arange(d, dtype=np.int64) * Fc, Fc)[:, None]
    glue[..., 0] = np.where(interior, glue[..., 0] + off, -1)

    left = np.array(cut.left_edges, dtype=np.int64)    # (c, 2)
    right = np.array(cut.right_edges, dtype=np.int64)
    ks = np.arange(d)[:, None]
    knext = (ks + 1) % d
    rf, rs = right[:, 0][None, :] + ks * Fc, np.broadcast_to(right[:, 1][None, :], (d, c))
    lf, ls = left[:, 0][None, :] + knext * Fc, np.broadcast_to(left[:, 1][None, :], (d, c))
    glue[rf, rs, 0], glue[rf, rs, 1] = lf, ls
    glue[lf, ls, 0], glue[lf, ls, 1] = rf, rs

    # Merge copy k's right boundary vertices with copy k+1's left ones.
    lab = np.arange(d * Vc, dtype=np.int64)
    lw = np.array(cut.left_vertices, dtype=np.int64)
    rw = np.array(cut.right_vertices, dtype=np.int64)
    lab[knext * Vc + lw[None, :]] = ks * Vc + rw[None, :]
    uniq, inv = np.unique(lab[faces], return_inverse=True)
    faces = inv.reshape(d * Fc, 3)

    cover_surface = TriangulatedSurface(faces, lengths, glue)
    if cover_surface.euler_characteristic() != d * surface.euler_characteristic():
        raise CoverError("cover Euler characteristic is not degree * base")

    prov_deck = ((uniq // Vc + 1) % d) * Vc + uniq % Vc
    deck_vertex = np.searchsorted(uniq, lab[prov_deck])
    if not np.array_equal(uniq[deck_vertex], lab[prov_deck]):
        raise CoverError("deck vertex map does not close over merged boundary vertices")
    deck_face = (np.arange(d * Fc, dtype=np.int64) + Fc) % (d * Fc)

    copy_index = np.repeat(np.arange(d, dtype=np.int64), Fc)
    base_face = np.tile(np.arange(Fc, dtype=np.int64), d)
    piece = copy_index // N + 1

    inv_of = np.full(d * Vc, -1, dtype=np.int64)
    inv_of[uniq] = np.arange(len(uniq))
    inv_of = inv_of[lab].reshape(d, Vc)

    # Lift i runs along copy (i*N % d)'s left boundary circle.  Cutting
    # the cover along one seam leaves the d copies as a chain, so no lift
    # separates.
    def lift_curve(i: int) -> MeshCurve:
        k = (i * N) % d
        verts = [int(inv_of[k, w]) for w in cut.left_vertices]
        edges = [(int(k * Fc + f), int(s)) for f, s in cut.left_edges]
        length = float(sum(cover_surface.lengths[f, s] for f, s in edges))
        return MeshCurve(tuple(verts), tuple(edges), length, separating=False)

    lifts = [lift_curve(i) for i in range(1, n + 2)]
    for lift in lifts:
        if lift.length != curve.length:
            raise CoverError("lift length deviates from the base curve length")

    return CoverSurface(
        surface=cover_surface,
        base=surface,
        n=n,
        N=N,
        degree=d,
        base_face=base_face,
        copy_index=copy_index,
        piece=piece,
        deck_face=deck_face,
        deck_vertex=deck_vertex,
        lifts=lifts,
        cut=cut,
        copy_vertex=inv_of,
    )


def verify_deck_symmetry(cover: CoverSurface) -> None:
    """Check that the stored deck map is an exact order-d symmetry.

    Verifies that deck_face is a permutation whose orbits all have size
    d, that it preserves edge lengths bitwise and commutes with the
    gluing and with deck_vertex, that deck_vertex carries each copy of
    the cut surface onto the next, that the projection to the base
    commutes with gluing, and that the N-th power of the deck map
    shifts pieces and lifts cyclically.  Raises CoverError on any
    failure.
    """
    surf = cover.surface
    d = cover.degree
    F = surf.num_faces
    deck = cover.deck_face

    if sorted(deck.tolist()) != list(range(F)):
        raise CoverError("deck face map is not a permutation")
    power = np.arange(F)
    for _ in range(d):
        power = deck[power]
    if not np.array_equal(power, np.arange(F)):
        raise CoverError(f"deck map does not have order {d}")
    if d > 1 and np.any(deck == np.arange(F)):
        raise CoverError("deck map fixes a face")

    if not np.array_equal(surf.lengths[deck], surf.lengths):
        raise CoverError("deck map does not preserve edge lengths bitwise")
    if not np.array_equal(cover.deck_vertex[surf.faces], surf.faces[deck]):
        raise CoverError("deck map does not commute with face vertex lists")
    if not np.array_equal(cover.deck_vertex[cover.copy_vertex],
                          np.roll(cover.copy_vertex, -1, axis=0)):
        raise CoverError("deck map does not shift the copies of the cut surface")

    gf, gs = surf.glue[..., 0], surf.glue[..., 1]
    if not (np.array_equal(gf[deck], deck[gf]) and np.array_equal(gs[deck], gs)):
        raise CoverError("deck map does not commute with the gluing")

    base = cover.base
    bf = cover.base_face
    if not np.array_equal(base.lengths[bf], surf.lengths):
        raise CoverError("projection to the base does not preserve lengths")
    sgrid = np.broadcast_to(np.arange(3)[None, :], (F, 3))
    if not (np.array_equal(bf[gf], base.glue[bf[:, None], sgrid, 0])
            and np.array_equal(gs, base.glue[bf[:, None], sgrid, 1])):
        raise CoverError("projection to the base does not commute with the gluing")

    nn = cover.n + 1
    powN = np.arange(F)
    for _ in range(cover.N):
        powN = deck[powN]
    want = cover.piece % nn + 1
    if not np.array_equal(cover.piece[powN], want):
        raise CoverError("deck^N does not shift pieces cyclically")
    for i, lift in enumerate(cover.lifts):
        nxt = cover.lifts[(i + 1) % nn]
        mapped = sorted((int(powN[f]), int(s)) for f, s in lift.edges)
        if mapped != sorted((int(f), int(s)) for f, s in nxt.edges):
            raise CoverError("deck^N does not map lifts cyclically")
