"""Packed trees that `Certificate.from_json_dict` must refuse: each is not
base64 of one complete zlib stream of tree codes, or inflates past the cap.
Shared by the certifier's and the command line's tests."""

import base64
import zlib

from quadineq.certifier import _pack


def _b64(data):
    return base64.b64encode(data).decode("ascii")


# each packed tree with the start of the reason it is refused for
BAD_PACKINGS = {
    "non-base64-character": ("@" + _pack("4LL")[1:], "tree is not base64"),
    "broken-padding": (_pack("4LL").rstrip("="), "tree is not base64"),
    "not-zlib": (_b64(b"4LL"), "tree is not a zlib stream"),
    "truncated-stream": (_b64(zlib.compress(b"4LL")[:-2]), "tree ends inside its zlib stream"),
    "bytes-after-stream": (_b64(zlib.compress(b"4LL") + b"L"),
                           "tree continues past the end of its zlib stream"),
    "unknown-code": (_pack("4Lx"), "tree holds a code other than"),
    "non-ascii-code": (_b64(zlib.compress(b"4L\xff")), "tree holds a code other than"),
    # about 10 kB that would inflate to 10 MB
    "deflate-bomb": (_b64(zlib.compress(b"L" * 10**7)), "tree inflates past 256 bytes"),
}
