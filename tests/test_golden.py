"""Byte-identity of the oracle: `rsd oracle` and `rsd label` output, pinned.

Each instance's exit codes, stdout and stderr from both commands are hashed
and compared with `golden_digests.json`.  The instances are every 8th tree
and graph of the acceptance recipe, its structured specials, the dense
regression graphs, and a 300-node dense graph whose weight tags are
repaired by promoting robbed carriers.  A change that is meant to alter
this output regenerates the file with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json
"""
import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

from test_acceptance import build_corpus

from rsd import cli
from rsd.generators import random_connected_graph

GOLDEN = Path(__file__).with_name("golden_digests.json")

DENSE = [
    ("dense-80", random_connected_graph, (80, 32, 2 + 13 * 80), {}),
    ("dense-62", random_connected_graph, (62, 10, 5000 + 3 + 31 * 62 + 186), {"extra_edges": 186}),
    ("dense-68", random_connected_graph, (68, 10, 5000 + 2 + 31 * 68 + 204), {"extra_edges": 204}),
    ("dense-72", random_connected_graph, (72, 6, 5000 + 3 + 31 * 72 + 144), {"extra_edges": 144}),
    ("dense-300", random_connected_graph, (300, 16, 1), {"extra_edges": 300}),
]


def instances():
    for name, g in build_corpus():
        sampled = re.fullmatch(r"(tree|graph)-(\d+)", name)
        if sampled is None or int(sampled.group(2)) % 8 == 0:
            yield name, g
    for name, make, args, kwargs in DENSE:
        yield name, make(*args, **kwargs)


def digests():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.txt")
        for name, g in instances():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(g.to_text())
            h = hashlib.sha256()
            for command in ("oracle", "label"):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main([command, path])
                h.update(repr((command, code, stdout.getvalue(), stderr.getvalue())).encode())
            out[name] = h.hexdigest()[:16]
    return out


def test_oracle_and_label_output_is_byte_identical():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digests() == expected


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
