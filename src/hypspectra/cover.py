"""Cyclic covers of a closed surface, unrolled along a non-separating curve.

A degree-d cover is built from d copies of the surface cut open along
the curve: the right boundary circle of copy k is glued to the left
boundary circle of copy k+1 (mod d), edge for edge.  Faces are laid out
copy-major, so the generating deck transformation is the index shift
f -> f + F_cut (mod d * F_cut) on faces.

For d = (n+1) * N the cover carries n+1 pieces, each a block of N
consecutive copies (one contiguous run of N * F_cut faces), and n+1
designated lifts of the curve: lift i is the seam where piece i meets
piece i+1 (cyclically), sitting at copy i*N mod d.  All lifts carry the
same edge lengths as the base curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surface import (CutSurface, MeshCurve, MeshError, TriangulatedSurface, curve_from_sides,
                      cut_along)

__all__ = ["CoverError", "CoverSurface", "cyclic_cover"]


class CoverError(MeshError):
    """The cover construction failed or was given invalid arguments."""


@dataclass
class CoverSurface:
    """A cyclic cover together with its deck map, pieces, and lifts.

    Face f of the cover is face f % F_cut of copy f // F_cut.  piece[f]
    is in 1..n+1; lifts[i-1] is the curve lift bounding piece i and
    piece i+1 (cyclically).  cut is the base cut open along the curve,
    and copy_vertex[k, j] is the cover vertex of cut vertex j in copy k;
    deck_vertex, the generating deck transformation on vertices, maps
    copy_vertex[k] to copy_vertex[k+1].
    """

    surface: TriangulatedSurface
    n: int
    N: int
    degree: int
    piece: np.ndarray
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

    new_id = np.full(d * Vc, -1, dtype=np.int64)
    new_id[uniq] = np.arange(len(uniq))
    copy_vertex = new_id[lab].reshape(d, Vc)
    deck_vertex = np.empty(len(uniq), dtype=np.int64)
    deck_vertex[copy_vertex] = np.roll(copy_vertex, -1, axis=0)

    # Lift i runs along copy (i*N % d)'s left boundary circle.  Cutting
    # the cover along one seam leaves the d copies as a chain, so no lift
    # separates.
    lifts = [curve_from_sides(cover_surface, [(k * Fc + f, s) for f, s in cut.left_edges])
             for k in np.arange(1, n + 2) * N % d]
    for lift in lifts:
        if lift.length != curve.length:
            raise CoverError("lift length deviates from the base curve length")

    return CoverSurface(
        surface=cover_surface,
        n=n,
        N=N,
        degree=d,
        piece=np.repeat(np.arange(1, n + 2), N * Fc),
        deck_vertex=deck_vertex,
        lifts=lifts,
        cut=cut,
        copy_vertex=copy_vertex,
    )
