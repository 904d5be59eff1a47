import os
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from haarlab import (
    cyclic,
    dihedral,
    direct_product,
    group_topologies,
    quaternion8,
    symmetric3,
)
from haarlab.topology import mask_of


SRC = Path(__file__).resolve().parent.parent / "src"


def src_env(**overrides):
    """The environment for a child `python -m haarlab.cli`, with this
    checkout's src first on PYTHONPATH, so the child imports the same
    haarlab as the tests whether or not the package is installed."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def write_fresh(path, data):
    """Write text or bytes to path as a new file.  On ext4, replacing the
    contents of a file that holds data, by truncation or by a rename over
    it, flushes the file to disk on close, tens of milliseconds each time;
    a file created after an unlink is not flushed."""
    path.unlink(missing_ok=True)
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, encoding="utf-8")


def corpus_groups():
    groups = [cyclic(n) for n in range(1, 13)]
    groups += [dihedral(3), dihedral(4), quaternion8(), symmetric3()]
    groups.append(direct_product(cyclic(2), cyclic(4)))
    return groups


#: Past 16 atoms: 24, 32 and 64 atoms, and 16 atoms of order 4.
LARGE_INSTANCES = [
    (cyclic(24), 1),
    (direct_product(cyclic(2), cyclic(16)), 1),
    (cyclic(64), 1),
    (cyclic(64), mask_of([0, 16, 32, 48])),
]


@pytest.fixture(scope="session")
def corpus():
    return corpus_groups()


@pytest.fixture(scope="session")
def corpus_instances(corpus):
    """Every corpus group with every compatible topology."""
    return [tg for group in corpus for tg in group_topologies(group)]


def random_fraction(rng: random.Random, nonneg=True, max_num=99):
    num = rng.randint(0 if nonneg else -max_num, max_num)
    den = rng.randint(1, max_num)
    return Fraction(num, den)


def brute_force_covering_count(tg, k, s) -> int:
    """Independent all-subsets oracle for the covering number (K:S) of the
    point mask k by left translates of the open point mask s, translated
    point by point with the group law."""
    if k == 0:
        return 0
    group = tg.group
    translate_masks = sorted({group.translate(g, s) for g in range(group.order)})
    for size in range(1, len(translate_masks) + 1):
        for combo in combinations(translate_masks, size):
            acc = 0
            for m in combo:
                acc |= m
            if k & ~acc == 0:
                return size
    raise AssertionError("no cover found")
