import json
import os
import random
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from haarlab import (
    FiniteSpace,
    FiniteTopGroup,
    cli,
    cyclic,
    dihedral,
    direct_product,
    group_topologies,
    quaternion8,
    symmetric3,
)
from haarlab.topology import mask_of


SRC = Path(__file__).resolve().parent.parent / "src"

#: The arguments that make a child `python` run the CLI.
CLI = ("-m", "haarlab.cli")


def src_env(**overrides):
    """The environment for a child `python`, with this checkout's src
    first on PYTHONPATH, so the child imports the same haarlab as the
    tests whether or not the package is installed."""
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


# -- running the CLI -----------------------------------------------------------


class Ran(subprocess.CompletedProcess):
    """A finished command line: returncode, and stdout and stderr as bytes."""

    @property
    def report(self):
        return json.loads(self.stdout)


def python_child(*args, env=None, **popen):
    """Start `python *args` in the environment `src_env()` unless env is
    given: the one place the tests start a process.  Use it as a context
    manager, or call `run_python`, so that every pipe is closed."""
    return subprocess.Popen(
        [sys.executable, *args], env=src_env() if env is None else env, **popen
    )


def run_python(*args, env=None):
    """`python *args` run to its end in a child process, as a `Ran`."""
    with python_child(
        *args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        out, err = proc.communicate(timeout=120)
    return Ran(proc.args, proc.returncode, out, err)


@pytest.fixture
def write_input(tmp_path):
    """write_input(payload) writes payload to a fresh input.json in
    tmp_path, as it is when it is bytes or str and as JSON otherwise, and
    returns the file's path as a string."""

    def write(payload):
        path = tmp_path / "input.json"
        is_text = isinstance(payload, (bytes, str))
        write_fresh(path, payload if is_text else json.dumps(payload))
        return str(path)

    return write


@pytest.fixture
def in_process(write_input, capsys):
    """in_process(command, payload, *flags) runs `cli.run` in this process
    on payload as the --input file and returns a `Ran` of its exit code and
    captured output."""

    def run(command, payload, *flags):
        argv = [command, "--input", write_input(payload), *flags]
        code = cli.run(argv)
        out, err = capsys.readouterr()
        return Ran(argv, code, out.encode(), err.encode())

    return run


@pytest.fixture
def child(write_input):
    """child(command, payload, *flags, env=None): the same command line as
    `in_process`, run as `python -m haarlab.cli` in a child process.  Use
    it only where the process is what a test checks: how it ends and
    flushes, its streams, its environment, a fresh interpreter's recursion
    limit or its hash seed."""

    def run(command, payload, *flags, env=None):
        return run_python(*CLI, command, "--input", write_input(payload), *flags, env=env)

    return run


# -- counting calls ----------------------------------------------------------

#: One call that `count_calls` saw: its arguments and what it returned or raised.
Call = namedtuple("Call", "args kwargs result")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) replaces the function, method or static
    method `name` of a module or class (or the `func` of a cached_property)
    with a wrapper that records every call as a `Call`, and returns the
    list of them; a call that raises is recorded too, with the exception as
    its result.  The original comes back when the test ends.
    A counter bound is an assertion on that list:

        calls = count_calls(plane, "haar_v")
        assert cli.run(["plane", "--input", path]) == 0
        assert len(calls) <= 4
    """

    def install(owner, name):
        func = getattr(owner, name)
        calls = []

        def wrapper(*args, **kwargs):
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                calls.append(Call(args, kwargs, exc))
                raise
            calls.append(Call(args, kwargs, result))
            return result

        if isinstance(vars(owner).get(name), staticmethod):
            wrapper = staticmethod(wrapper)
        monkeypatch.setattr(owner, name, wrapper)
        return calls

    return install


# -- shared instances ----------------------------------------------------------


def z4_coset_instance():
    """Z4 with the coset topology of N = {0, 2}: two atoms."""
    return FiniteTopGroup(cyclic(4), 0b0101)


def discrete_instance(group):
    """group with the discrete topology, given by its full open family."""
    return FiniteTopGroup.from_space(
        group, FiniteSpace.from_opens(group.order, range(1 << group.order))
    )


def indiscrete_instance(group):
    """group with the indiscrete topology, given by its two opens."""
    full = (1 << group.order) - 1
    return FiniteTopGroup.from_space(group, FiniteSpace.from_opens(group.order, [0, full]))


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
