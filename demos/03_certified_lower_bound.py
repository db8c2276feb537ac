#!/usr/bin/env python3
"""Produce and replay a machine-checkable positivity certificate.

Branch-and-bound tiles the margin-truncated frame domain with boxes whose
interval residual enclosures are certified nonnegative.  The certificate
is a plain JSON document: the bisection tree as one code per node in level
order, plus every leaf's bound.  An independent replay regenerates every
box from the tree, recomputes every leaf bound, and catches any tampering
(an inflated bound, a missing bound, a flipped node code).

A coarse margin keeps this demo quick; `quadineq certify --margin 0.1`
reproduces the full desk-scale run.
"""

import json
import time

from quadineq import certify, verify_certificate
from quadineq.ioutil import dumps


def main():
    t0 = time.perf_counter()
    cert = certify(margin=0.15, target=0.0, max_boxes=500_000)
    t1 = time.perf_counter()
    print(f"certify(margin=0.15): complete={cert.complete}  "
          f"c*={cert.c_star:.3e}  boxes={cert.box_count}  "
          f"leaves={len(cert.bounds)}  [{t1 - t0:.1f} s]")

    doc = json.loads(dumps(cert.to_json_dict()))
    t0 = time.perf_counter()
    ok = verify_certificate(doc)
    t1 = time.perf_counter()
    print(f"independent replay: verified={ok}  [{t1 - t0:.1f} s]")

    tampered = json.loads(dumps(cert.to_json_dict()))
    tampered["leaves"][0]["lower_bound"] += 1.0
    print(f"inflated leaf bound: verified={verify_certificate(tampered)}")

    gap = json.loads(dumps(cert.to_json_dict()))
    del gap["leaves"][1]
    print(f"missing leaf bound:  verified={verify_certificate(gap)}")

    flipped = json.loads(dumps(cert.to_json_dict()))
    flipped["tree"] = flipped["tree"].replace(".", "L", 1)
    print(f"flipped node code:   verified={verify_certificate(flipped)}")


if __name__ == "__main__":
    main()
