#!/usr/bin/env python3
"""Produce and replay a machine-checkable positivity certificate.

Branch-and-bound tiles the margin-truncated frame domain, cut to one
eighth by the dihedral symmetry of the quadrilateral and charted at p1 = 1,
with boxes whose interval residual enclosures are certified nonnegative.
The certificate is a JSON document: the bisection tree, plus the claimed
lower bound c*.  The tree is one code per node in level order ('1'-'4' for
a split along the widest, second, third or fourth widest of p2, p3, p4 and
w in the node's clipped box, 'L' for a leaf, '.' for a box outside the
domain), stored packed: base64 of one zlib stream of the node count and
three bit planes (whether each node splits, whether each node that does not
is '.', each split's rank), about a sixth of a byte per node at margin
0.15.  An independent replay unpacks
the tree, regenerates every box from it, recomputes every leaf bound, and
catches tampering (an inflated c*, a leaf recoded as outside the domain, a
root split recoded from the widest dimension to the narrowest); the
tampered trees below are unpacked, edited and packed again, as a forger
would.

A coarse margin keeps this demo quick; `quadineq certify --margin 0.1`
reproduces the full desk-scale run.
"""

import json
import time

from quadineq import certify, verify_certificate
from quadineq.certifier import _pack, _unpack
from quadineq.ioutil import dumps


def main():
    t0 = time.perf_counter()
    cert = certify(margin=0.15, target=0.0, max_boxes=500_000)
    t1 = time.perf_counter()
    print(f"certify(margin=0.15): complete={cert.complete}  "
          f"c*={cert.c_star:.3e}  boxes={cert.box_count}  "
          f"leaves={cert.tree.count('L')}  [{t1 - t0:.1f} s]")

    doc = json.loads(dumps(cert.to_json_dict()))
    t0 = time.perf_counter()
    ok = verify_certificate(doc)
    t1 = time.perf_counter()
    print(f"independent replay: verified={ok}  [{t1 - t0:.1f} s]")

    tampered = json.loads(dumps(cert.to_json_dict()))
    tampered["c_star"] = 10.0 * tampered["c_star"] + 1.0
    print(f"inflated c*:          verified={verify_certificate(tampered)}")

    gap = json.loads(dumps(cert.to_json_dict()))
    tree = _unpack(gap["tree"])
    leaf = tree.index("L")
    gap["tree"] = _pack(tree[:leaf] + "." + tree[leaf + 1:])
    print(f"leaf coded outside:   verified={verify_certificate(gap)}")

    flipped = json.loads(dumps(cert.to_json_dict()))
    tree = _unpack(flipped["tree"])
    # certify splits every box along its widest dimension, code '1'
    flipped["tree"] = _pack("4" + tree[1:])
    print(f"root split '{tree[0]}' recoded '4': "
          f"verified={verify_certificate(flipped)}")


if __name__ == "__main__":
    main()
