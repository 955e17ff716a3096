"""The sha256 of one graded layer's record, which the pins of relation bases
compare: the trees as nested lists, the pivots and reduced echelon rows of
the relation span R_w (entries rendered by ``frac_str``), the layer basis
and the dimension, under a fixed format string.  The record is byte for
byte the JSON document the persisted component cache once wrote for a
layer, so the pins taken from those files still apply."""

import hashlib
import json

from nlie.linalg import frac_str


def layer_sha256(comp) -> str:
    record = {
        "format": "nlie-graded-component-v2",
        "n": comp.n,
        "d": comp.d,
        "w": comp.w,
        # json writes the nested tuples as nested lists
        "trees": comp.trees,
        "relation_pivots": list(comp.relations.pivots),
        "relation_rows": [
            [[col, frac_str(x)] for col, x in sorted(row.items())]
            for row in comp.relations.basis
        ],
        "basis_indices": list(comp.basis_indices),
        "dim": comp.dim,
    }
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()
