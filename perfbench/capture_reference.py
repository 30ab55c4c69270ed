"""Regenerate the oracle reference files in `reference/`.

    python3 perfbench/capture_reference.py

Run from the root of a checkout at the commit whose outputs are the
reference.  It writes the content digest of `nlo certify` for every
instance of the certified grid, and the `nlo order` result for every
finite_quotients candidate at the workload's coset cap.  Later commits
must reproduce the digests byte for byte and the complete orders exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from run import import_nlo
from workloads import (
    CERTIFY_REFERENCE,
    ORDER_MAX_COSETS,
    ORDER_REFERENCE,
    QUOTIENT_KNOTS,
    _param_argv,
    certified_grid,
    content_digest,
    order_key,
    param_key,
    quotient_slopes,
)


def invoke(nlo, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = nlo.cli.main(argv)
    if rc != 0:
        raise SystemExit(f"nlo {' '.join(argv)} exited {rc}")
    return out.getvalue()


def main() -> int:
    nlo = import_nlo()
    digests = {
        param_key(q): content_digest(invoke(nlo, ["certify", *_param_argv(q)]))
        for q in certified_grid(12, 6, 5)
    }
    orders = {}
    for q in QUOTIENT_KNOTS["full"]:
        for n in quotient_slopes(q, "full"):
            argv = ["order", *_param_argv(q), "--slope", f"{n}/1",
                    "--max-cosets", str(ORDER_MAX_COSETS)]
            content = json.loads(invoke(nlo, argv))["content"]
            orders[order_key(q, n)] = {
                "status": content["status"],
                "cosets": content["cosets"],
                "order": content["order"],
            }
    # 1/1 surgery on the trefoil has the binary icosahedral group as its
    # fundamental group.
    if orders[order_key((3, 1, -1, 2, 0), 1)]["order"] != 120:
        raise SystemExit("trefoil 1/1 surgery: expected order 120")
    for path, data in ((CERTIFY_REFERENCE, digests), (ORDER_REFERENCE, orders)):
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(data)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
