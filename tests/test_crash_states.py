"""Every disk state a power loss can leave a store in, enumerated as ALICE
does (Pillai et al., "All File Systems Are Not Created Equal", OSDI 2014).

A shim over the ``open`` and ``os`` calls of ``kdn.store`` (and over
``Path.unlink``) records the file operations of a run of store calls.  After
each operation of that record, every disk a power loss could leave is rebuilt
in a temp dir, under these rules:

- bytes written to a file and not yet fsynced are lost, or kept up to any length;
- a directory's creates, renames and unlinks are sure to count only once that
  directory is fsynced; before, any prefix of them, in the order made, counts.

Each rebuilt store is then reopened and checked.
"""

import itertools
import json
import os
import posixpath
from contextlib import contextmanager
from pathlib import Path

import pytest

from kdn import store as store_module
from kdn.model import ModelConfig, build_model
from kdn.store import MODE_CHAIN, MODE_STANDALONE, StoreConfig, open_store

MANIFEST = "manifest.jsonl"
DOC_A = list(range(16))  # two chain chunks
DOC_B = [(5 * i + 3) % 32 for i in range(16)]  # two standalone chunks
DOC_C = [(7 * i + 2) % 32 for i in range(8)]  # the put made after a reopen


@pytest.fixture(scope="module")
def model():
    return build_model(ModelConfig(2, 2, 4, 32))


def _open(root, capacity):
    return open_store(StoreConfig(root=root, capacity=capacity, chunk_size=8))


def _calls(st, model):
    """A put, a pin, an edit, a put that evicts and an eviction; yields after each."""
    a = st.store_text(model, DOC_A, mode=MODE_CHAIN)  # creates the manifest
    yield
    st.pin(a[0])
    yield
    st.apply_edit(a[1], 1, {"factor": 2.0, "tokens": [0]})  # a new blob; the old one is unlinked
    yield
    st.store_text(model, DOC_B, mode=MODE_STANDALONE)  # its second chunk evicts a[1]
    yield
    st.evict_to(st.entries[a[0].digest].size)  # evicts DOC_B's chunks; a[0] is pinned
    yield


class _RecordedFile:
    def __init__(self, f, path, record):
        self._f, self._path, self._record = f, path, record

    def write(self, data):
        n = self._f.write(data)
        self._record("write", self._path, data.encode() if isinstance(data, str) else bytes(data))
        return n

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __iter__(self):
        return iter(self._f)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@contextmanager
def _recording(root: Path, events: list, after=lambda: None):
    """Append each file operation ``kdn.store`` makes under ``root`` to
    ``events`` as (op, path relative to root, argument), and call ``after``
    once each is made; the operations ``after`` makes are recorded too, but
    call it again no more."""
    fds = {}  # open descriptor -> relative path
    in_after = []

    def record(*event):
        events.append(event)
        if not in_after:
            in_after.append(True)
            try:
                after()
            finally:
                in_after.clear()

    def rel(path) -> str:
        return Path(path).relative_to(root).as_posix()

    def open_file(path, mode="r", **kwargs):
        created = "w" in mode or "a" in mode and not Path(path).exists()
        f = _RecordedFile(open(path, mode, **kwargs), rel(path), record)
        fds[f.fileno()] = rel(path)
        if created:
            record("create", rel(path), None)
        return f

    class Os:
        def __getattr__(self, name):
            return getattr(os, name)

        @staticmethod
        def open(path, flags):
            fd = os.open(path, flags)
            fds[fd] = rel(path)
            return fd

        @staticmethod
        def fsync(fd):
            os.fsync(fd)
            record("fsync", fds[fd], None)

        @staticmethod
        def replace(src, dst):
            os.replace(src, dst)
            record("replace", rel(src), rel(dst))

    unlink = Path.unlink

    def recorded_unlink(path, missing_ok=False):
        unlink(path, missing_ok=missing_ok)
        record("unlink", rel(path), None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(store_module, "open", open_file, raising=False)
        mp.setattr(store_module, "os", Os())
        mp.setattr(Path, "unlink", recorded_unlink)
        yield


class _Disk:
    """A store root under power loss: each file's bytes as written and as
    fsynced, and each directory's names as fsynced plus the changes made to
    them since, in order."""

    def __init__(self):
        self.written: dict[int, bytes] = {}  # inode -> bytes
        self.synced: dict[int, bytes] = {}
        self.names: dict[str, dict[str, int]] = {".": {}, "blobs": {}}  # directory -> name -> inode
        self.changes: dict[str, list] = {d: [] for d in self.names}  # directory -> [[(name, inode or None)]]

    def _views(self, d: str) -> list[dict[str, int]]:
        """The names of directory ``d`` after each prefix of its changes."""
        view = dict(self.names[d])
        views = [dict(view)]
        for change in self.changes[d]:
            for name, inode in change:
                if inode is None:
                    view.pop(name, None)
                else:
                    view[name] = inode
            views.append(dict(view))
        return views

    def apply(self, op: str, path: str, arg) -> None:
        d, name = posixpath.split(path)
        d = d or "."
        issued = self._views(d)[-1]
        if op == "create":
            inode = len(self.written)
            self.written[inode] = self.synced[inode] = b""
            self.changes[d].append([(name, inode)])
        elif op == "write":
            self.written[issued[name]] += arg
        elif op == "fsync" and path in self.names:
            self.names[path], self.changes[path] = self._views(path)[-1], []
        elif op == "fsync":
            self.synced[issued[name]] = self.written[issued[name]]
        elif op == "replace":
            to_dir, to_name = posixpath.split(arg)
            assert to_dir == posixpath.dirname(path)
            self.changes[d].append([(name, None), (to_name, issued[name])])
        elif op == "unlink":
            self.changes[d].append([(name, None)])

    def crash_states(self):
        """Every disk a power loss now could leave, as {path: bytes}."""
        for chosen in itertools.product(*map(self._views, self.names)):
            files = [(posixpath.normpath(posixpath.join(d, n)), inode)
                     for d, names in zip(self.names, chosen) for n, inode in names.items()]
            yield from map(dict, itertools.product(*(
                [(path, self.written[inode][:n]) for n in _cuts(path, self.synced[inode], self.written[inode])]
                for path, inode in files)))


def _cuts(path: str, synced: bytes, written: bytes) -> set[int]:
    """The lengths a power loss may leave of a file: its fsynced bytes plus
    any prefix of the rest.  Replay reads a line by whether it holds a whole
    record, so of the manifest the lengths kept are, in each unsynced line:
    none of it, 1 byte, half, its record less its last byte, its record
    without the newline, and all of it.  A blob is kept empty, half or whole:
    reopening tells a blob only as whole or short."""
    if path != MANIFEST:
        return {len(synced), (len(synced) + len(written)) // 2, len(written)}
    cuts, start = {len(synced)}, len(synced)
    for line in written[start:].splitlines(keepends=True):
        end = start + len(line)
        cuts |= {start + 1, (start + end) // 2, end - 2, end - 1, end}
        start = end
    return {n for n in cuts if len(synced) <= n}


def _replayed(manifest: bytes) -> list:
    """(key, (blob file, pinned)) of each entry a plain reading of the
    manifest's records leaves, least recently put first."""
    index = {}
    for line in manifest.split(b"\n"):
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        key, op = rec["key"], rec.get("op", "put")
        if op == "put":
            index.pop(key, None)
            index[key] = rec["file"], rec["pinned"]
        elif op == "del":
            index.pop(key, None)
        elif key in index:
            index[key] = index[key][0], rec["pinned"]
    return list(index.items())


def _index(st) -> list:
    return [(d.hex(), (e.file, e.pinned)) for d, e in st.entries.items()]


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def _check_blobs(st) -> None:
    """No entry names a missing or short blob, and no other blob is left."""
    assert {p.name for p in st.blob_dir.iterdir()} == {e.file for e in st.entries.values()}
    for e in st.entries.values():
        assert (st.blob_dir / e.file).stat().st_size == e.size


def _check_crash_state(root: Path, files: dict, acked: bytes, capacity: int, model) -> None:
    (root / "blobs").mkdir(parents=True)
    for path, data in files.items():
        (root / path).write_bytes(data)
    manifest = files.get(MANIFEST, b"")
    # every record whose call returned is there whole
    assert manifest[: len(acked)] == acked
    st = _open(root, capacity)
    # the index is what the records give: no entry was dropped for its blob
    assert _index(st) == _replayed(manifest)
    _check_blobs(st)
    # opening wrote no manifest byte, and a second open gives the same index
    again = _open(root, capacity)
    assert _index(again) == _index(st)
    assert _read(root / MANIFEST) == files.get(MANIFEST)
    # a put after the reopen survives the next one, as do the records before it
    keys = again.store_text(model, DOC_C, mode=MODE_STANDALONE)
    last = _open(root, capacity)
    assert last.lookup(model.model_id, DOC_C, MODE_STANDALONE) == (keys, [])
    assert _index(last) == _index(again) == _replayed((root / MANIFEST).read_bytes())
    _check_blobs(last)


def test_every_power_loss_state_of_put_pin_edit_and_evict_reopens_consistently(tmp_path, model):
    # a capacity one byte short of the four blobs the first four calls leave,
    # so the second chunk of DOC_B evicts
    dry = _open(tmp_path / "dry", 1 << 30)
    for _ in itertools.islice(_calls(dry, model), 4):
        pass
    capacity = dry.total_size - 1

    root = tmp_path / "store"
    st, events = _open(root, capacity), []

    def second_open():
        """Open the live root once more: that open unlinks no file and writes
        no byte, so it makes no file operation of the record."""
        n, manifest = len(events), _read(root / MANIFEST)
        opened = _open(root, capacity)
        assert events[n:] == [] and _read(root / MANIFEST) == manifest
        return opened

    # a second open at every operation of the live run, and after each call
    # returns, one that finds every record whole and every blob in place
    with _recording(root, events, after=second_open):
        for _ in _calls(st, model):
            events.append(("ack", None, None))
            opened = second_open()
            assert _index(opened) == _replayed((root / MANIFEST).read_bytes())
            _check_blobs(opened)
    ops = [(r.get("op", "put"), r["key"]) for r in map(json.loads, (root / MANIFEST).read_bytes().splitlines())]
    a0, a1, b0, b1 = (k for op, k in dict.fromkeys(ops) if op == "put")
    assert ops == [("put", a0), ("put", a1), ("pin", a0), ("put", a1), ("put", b0), ("del", a1),
                   ("put", b1), ("del", b0), ("del", b1)]
    assert {op for op, _, _ in events} == {"create", "write", "fsync", "replace", "unlink", "ack"}

    disk, written, acked, checked = _Disk(), b"", b"", set()
    for op, path, arg in events:
        if op == "ack":
            acked = written
            continue
        disk.apply(op, path, arg)
        written += arg if path == MANIFEST and op == "write" else b""
        for files in disk.crash_states():
            state = (tuple(sorted(files.items())), acked)
            if state not in checked:
                checked.add(state)
                _check_crash_state(tmp_path / str(len(checked)), files, acked, capacity, model)
