"""Legacy ASCII VTK unstructured-grid writer for Q4 meshes."""

from __future__ import annotations

import numpy as np

_VTK_QUAD = 9


def write_vtk(path, nodes, elems, point_scalars=None, point_vectors=None):
    """Write a 2D quad mesh with nodal scalar/vector fields.

    nodes: (nn, 2) or (nn, 3); elems: (ne, 4). Scalars are written as
    POINT_DATA SCALARS, vectors padded to 3 components.
    """
    nodes = np.asarray(nodes, dtype=float)
    elems = np.asarray(elems, dtype=int)
    nn = nodes.shape[0]
    ne = elems.shape[0]
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write("cdfdamage fields\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {nn} double\n")
        for p in nodes:
            z = p[2] if nodes.shape[1] > 2 else 0.0
            f.write(f"{p[0]:.17g} {p[1]:.17g} {z:.17g}\n")
        f.write(f"CELLS {ne} {5 * ne}\n")
        for conn in elems:
            f.write(f"4 {conn[0]} {conn[1]} {conn[2]} {conn[3]}\n")
        f.write(f"CELL_TYPES {ne}\n")
        for _ in range(ne):
            f.write(f"{_VTK_QUAD}\n")
        f.write(f"POINT_DATA {nn}\n")
        for name, values in (point_scalars or {}).items():
            vals = np.asarray(values, dtype=float)
            f.write(f"SCALARS {name} double 1\n")
            f.write("LOOKUP_TABLE default\n")
            for v in vals:
                f.write(f"{v:.17g}\n")
        for name, values in (point_vectors or {}).items():
            vecs = np.asarray(values, dtype=float)
            f.write(f"VECTORS {name} double\n")
            for v in vecs:
                z = v[2] if vecs.shape[1] > 2 else 0.0
                f.write(f"{v[0]:.17g} {v[1]:.17g} {z:.17g}\n")
