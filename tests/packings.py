"""Packed trees that `Certificate.from_json_dict` must refuse: each is not
base64 of one complete zlib stream of a node count and the bit planes that
count needs, or inflates past the cap.  Shared by the certifier's and the
command line's tests."""

import base64
import zlib

from quadineq.certifier import _pack

# what `_pack("4LL")` deflates: the node count 3, then plane A 100 (the
# root splits), plane B 00 (two leaves), plane C 11 (rank 4) and a zero pad
PLANES = bytes([0, 0, 0, 3, 0b1000_0110])


def _b64(data):
    return base64.b64encode(data).decode("ascii")


def _packed(stream):
    return _b64(zlib.compress(stream))


# each packed tree with the start of the reason it is refused for
BAD_PACKINGS = {
    "non-base64-character": ("@" + _pack("4LL")[1:], "tree is not base64"),
    "broken-padding": (_pack("4LL").rstrip("="), "tree is not base64"),
    "not-zlib": (_b64(PLANES), "tree is not a zlib stream"),
    "truncated-stream": (_b64(zlib.compress(PLANES)[:-2]), "tree ends inside its zlib stream"),
    "bytes-after-stream": (_b64(zlib.compress(PLANES) + b"L"),
                           "tree continues past the end of its zlib stream"),
    # codes one byte each, as format 0.10.0 packed them: three bytes hold no
    # node count, and four read as one claim 877,415,679 nodes
    "unknown-code": (_packed(b"4Lx"), "tree ends inside its node count"),
    "non-ascii-code": (_packed(b"4LL\xff"), "tree's 877415679 nodes need more bits"),
    "count-cut-short": (_packed(PLANES[:3]), "tree ends inside its node count"),
    # 4 nodes whose plane A reads 1000 need 9 bits, one more than the byte
    "count-past-planes": (_packed((4).to_bytes(4, "big") + PLANES[4:]),
                          "tree's 4 nodes need more bits"),
    # refused before plane A is read, let alone the codes allocated
    "huge-count": (_packed(b"\xff" * 4 + PLANES[4:]), "tree's 4294967295 nodes need more bits"),
    "payload-past-planes": (_packed(PLANES + b"\0"), "tree continues past its planes"),
    "nonzero-pad": (_packed(PLANES[:-1] + bytes([PLANES[-1] | 1])),
                    "tree's pad bits are not zero"),
    # about 10 kB that would inflate to 10 MB
    "deflate-bomb": (_b64(zlib.compress(b"L" * 10**7)), "tree inflates past 256 bytes"),
}
