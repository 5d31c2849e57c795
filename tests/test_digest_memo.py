"""The input-digest memo: a digest is reused only while it is still true.

:func:`~repro.runtime.store.input_digest` memoizes the digest of each
``path`` input on the stat identity of every file it hashed, and
records a digest only when no file changed within the racy window
before hashing began.  The load-bearing property: whatever happens to
the files between calls — an in-place rewrite of the same length, a
rename over the input, a timestamp set back, a deleted shard, a
manifest pointed at another shard — every digest equals a fresh
SHA-256 of the bytes the input holds now.

The shipped window is 2 s.  To make the memo record within a test,
the window is patched down to 50 ms and each edit is followed by a
sleep past it; it is never patched to 0, which would test a rule the
code does not ship.
"""

import builtins
import hashlib
import io
import json
import os
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import write_binary_edgelist
from repro.graph.generators import chung_lu
from repro.runtime import make_job
from repro.runtime import store
from repro.runtime.store import MEMO_CAPACITY, input_digest
from repro.stream import read_shard_manifest, write_sharded_edges

WINDOW_NS = 50_000_000
#: past the patched window, with room for the kernel's coarse file clock
SETTLE_S = 0.12


def _digest(path):
    return input_digest(make_job("HDRF", path, 4), path)


def _fresh_digest(path: Path) -> str | None:
    """The digest by definition, computed with hashlib alone."""
    if not path.is_file():
        return None
    files = [path]
    if path.name.endswith(".json"):
        try:
            files += read_shard_manifest(path).shard_paths
        except GraphFormatError:
            return None
    hasher = hashlib.sha256(b"path:")
    for file in files:
        hasher.update(Path(file).read_bytes())
    return hasher.hexdigest()


def _patched(mp):
    """A fresh memo with the short test window; returns the memo."""
    memo = store._DigestMemo(MEMO_CAPACITY)
    mp.setattr(store, "_MEMO", memo)
    mp.setattr(store, "RACY_WINDOW_NS", WINDOW_NS)
    return memo


def _graph(seed=3):
    return chung_lu(200, mean_degree=6, exponent=2.2, seed=seed, name="dm")


@pytest.fixture()
def inputs(tmp_path):
    """A flat edge file, a raw manifest and a zlib manifest."""
    graph = _graph()
    flat = tmp_path / "g.bin"
    write_binary_edgelist(graph, flat)
    raw = write_sharded_edges(graph, tmp_path / "raw.manifest.json", 3)
    packed = write_sharded_edges(
        graph, tmp_path / "z.manifest.json", 2, compression="zlib"
    )
    return [flat, raw.path, packed.path]


class TestDigestIdentity:
    def test_cold_and_memoized_digests_match_the_definition(
        self, inputs, monkeypatch
    ):
        memo = _patched(monkeypatch)
        time.sleep(SETTLE_S)
        for path in inputs:
            want = _fresh_digest(path)
            assert want is not None
            assert _digest(path) == want  # cold: hashed and recorded
            assert _digest(path) == want  # memo hit
            assert _digest(str(path)) == want
        assert len(memo) == len(inputs)


class TestMemoRules:
    def test_memo_hit_opens_no_file(self, inputs, monkeypatch):
        _patched(monkeypatch)
        time.sleep(SETTLE_S)
        want = {path: _digest(path) for path in inputs}

        def no_open(*args, **kwargs):
            raise AssertionError(f"a memo hit opened {args[0]!r}")

        monkeypatch.setattr(builtins, "open", no_open)
        monkeypatch.setattr(io, "open", no_open)
        for path in inputs:
            assert _digest(path) == want[path]

    def test_repointed_shard_symlink_is_seen(self, tmp_path, monkeypatch):
        """A shard reached through a symlink is stat'ed through it, so
        pointing the link at another file of the same length re-hashes."""
        _patched(monkeypatch)
        manifest = write_sharded_edges(
            _graph(), tmp_path / "g.manifest.json", 2
        )
        shard = Path(manifest.shard_paths[0])
        target = tmp_path / "target.bin"
        other = tmp_path / "other.bin"
        shard.rename(target)
        other.write_bytes(bytes(reversed(target.read_bytes())))
        shard.symlink_to(target)
        time.sleep(SETTLE_S)
        first = _digest(manifest.path)
        assert first == _fresh_digest(manifest.path)
        staged = tmp_path / "link.new"
        staged.symlink_to(other)
        os.replace(staged, shard)
        want = _fresh_digest(manifest.path)
        assert want != first
        assert _digest(manifest.path) == want

    def test_young_file_is_rehashed_on_every_call(self, tmp_path, monkeypatch):
        """At the shipped 2 s window a just-written file never records."""
        memo = store._DigestMemo(MEMO_CAPACITY)
        monkeypatch.setattr(store, "_MEMO", memo)
        hashed = []
        real = store._update_with_file

        def counting(digest, path):
            hashed.append(path)
            real(digest, path)

        monkeypatch.setattr(store, "_update_with_file", counting)
        path = tmp_path / "young.bin"
        write_binary_edgelist(_graph(), path)
        first = _digest(path)
        assert _digest(path) == first == _fresh_digest(path)
        assert len(hashed) == 2 and len(memo) == 0

    def test_memo_never_exceeds_its_bound(self, tmp_path, monkeypatch):
        memo = _patched(monkeypatch)
        paths = []
        for i in range(MEMO_CAPACITY + 20):
            path = tmp_path / f"f{i}.bin"
            path.write_bytes(i.to_bytes(8, "little"))
            paths.append(path)
        time.sleep(SETTLE_S)
        for path in paths:
            assert _digest(path) == _fresh_digest(path)
            assert len(memo) <= MEMO_CAPACITY
        assert len(memo) == MEMO_CAPACITY
        # The oldest inputs were evicted and hash again; the newest hit.
        hashed = []
        real = store._update_with_file
        monkeypatch.setattr(
            store, "_update_with_file",
            lambda digest, path: (hashed.append(path), real(digest, path)),
        )
        assert _digest(paths[-1]) == _fresh_digest(paths[-1])
        assert hashed == []
        assert _digest(paths[0]) == _fresh_digest(paths[0])
        assert hashed == [str(paths[0])]
        assert len(memo) == MEMO_CAPACITY


# -- the soundness property ---------------------------------------------------

OPS = ("same_length", "other_length", "replace", "utime_back",
       "delete_restore", "repoint")


def _rewrite_in_place(path: Path, rng: random.Random) -> None:
    """New bytes of the current length, written into the same inode."""
    size = path.stat().st_size
    with open(path, "r+b") as handle:
        handle.write(rng.randbytes(size))


class _Scenario:
    """One input on disk plus the edits the property draws from."""

    def __init__(self, root: Path, kind: str) -> None:
        graph = _graph()
        if kind == "flat":
            self.input = root / "g.bin"
            write_binary_edgelist(graph, self.input)
            self.files = [self.input]
            self.declared = [self.input.stat().st_size]
            return
        manifest = write_sharded_edges(graph, root / "g.manifest.json", 2)
        self.input = manifest.path
        self.names = [Path(p).name for p in manifest.shard_paths]
        rng = random.Random(0)
        spares = []
        for i, shard in enumerate(manifest.shard_paths):
            spare = root / f"spare-{i}.bin"
            spare.write_bytes(rng.randbytes(Path(shard).stat().st_size))
            spares.append(spare)
        self.files = [Path(p) for p in manifest.shard_paths] + spares
        self.declared = [f.stat().st_size for f in self.files]

    def apply(self, op: str, target: int, rng: random.Random) -> None:
        """Apply one edit; checks the digest mid-edit where there is one."""
        index = target % len(self.files)
        path = self.files[index]
        if op == "same_length":
            _rewrite_in_place(path, rng)
        elif op == "other_length":
            # Toggle off and back onto the length the manifest declares.
            size = self.declared[index]
            if path.stat().st_size == size:
                size += 8
            path.write_bytes(rng.randbytes(size))
        elif op == "replace":
            staged = path.with_name(path.name + ".new")
            staged.write_bytes(rng.randbytes(path.stat().st_size))
            os.replace(staged, path)
        elif op == "utime_back":
            before = path.stat()
            _rewrite_in_place(path, rng)
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            assert path.stat().st_mtime_ns == before.st_mtime_ns
        elif op == "delete_restore":
            victim = self.input if target % 2 else path
            data = victim.read_bytes()
            victim.unlink()
            assert _digest(self.input) == _fresh_digest(self.input)
            victim.write_bytes(data)
        elif op == "repoint" and self.input.name.endswith(".json"):
            doc = json.loads(self.input.read_text(encoding="utf-8"))
            slot = target % len(doc["shards"])
            entry = doc["shards"][slot]
            spare = f"spare-{slot}.bin"
            named = self.names[slot]
            entry["path"] = named if entry["path"] == spare else spare
            self.input.write_text(json.dumps(doc), encoding="utf-8")


_edits = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 7), st.integers(0, 2**16)),
    min_size=1, max_size=5,
)


@pytest.mark.parametrize("kind", ["flat", "manifest"])
@settings(max_examples=8)
@given(edits=_edits)
def test_every_digest_is_a_fresh_sha256_of_the_current_bytes(kind, edits):
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as root:
        _patched(mp)
        scenario = _Scenario(Path(root), kind)
        time.sleep(SETTLE_S)
        assert _digest(scenario.input) == _fresh_digest(scenario.input)
        for op, target, seed in edits:
            scenario.apply(op, target, random.Random(seed))
            time.sleep(SETTLE_S)
            want = _fresh_digest(scenario.input)
            assert _digest(scenario.input) == want, (op, target)
            assert _digest(scenario.input) == want, (op, target)
