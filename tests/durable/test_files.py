"""The shared durable-file layer and the three line logs built on it.

The property test drives :class:`RunJournal`, :class:`PoisonQuarantine`
and :class:`EventWAL` through the same crash: write some records, cut
the file at an arbitrary byte, reopen, append again. Whatever the cut,
exactly the fully written records load, at most one line reads as
corrupt, the new record is readable, and every byte of the file is
pinned to ``canonical_json({"version": 1, ...}) + "\\n"`` per record.
"""

import tempfile
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable.files import LineLog, canonical_json, publish_atomic
from repro.durable.wal import EventWAL
from repro.errors import ConfigurationError
from repro.jobs.journal import RunJournal
from repro.supervise.quarantine import PoisonQuarantine


class JournalClient:
    """RunJournal: skips corrupt lines, keeps a torn fragment isolated."""

    repairs = False

    def __init__(self, path):
        self.log = RunJournal(path)

    def write(self, index, value):
        self.log.record(f"k{index:03d}", {"value": value})

    @staticmethod
    def line(index, value):
        record = {"key": f"k{index:03d}", "outcome": {"value": value}}
        return canonical_json({"version": 1, **record}) + "\n"

    def loaded(self):
        outcomes = self.log.load()
        return [o["value"] for o in outcomes.values()], self.log.corrupt_lines


class QuarantineClient:
    """PoisonQuarantine: skips corrupt lines, keeps a torn fragment isolated."""

    repairs = False

    def __init__(self, path):
        self.log = PoisonQuarantine(path)

    def write(self, index, value):
        self.log.add(f"k{index:03d}", reason=value, failures=index)

    @staticmethod
    def line(index, value):
        record = {"key": f"k{index:03d}", "reason": value, "failures": index}
        return canonical_json({"version": 1, **record}) + "\n"

    def loaded(self):
        reasons = [self.log.reason(key) for key in self.log.keys()]
        return reasons, self.log.corrupt_lines


class WALClient:
    """EventWAL: stops at the first corrupt line, truncates it on append."""

    repairs = True

    def __init__(self, path):
        self.log = EventWAL(path)

    def write(self, index, value):
        assert self.log.append({"value": value}) == index + 1

    @staticmethod
    def line(index, value):
        record = {"lsn": index + 1, "event": {"value": value}}
        return canonical_json({"version": 1, **record}) + "\n"

    def loaded(self):
        records = self.log.replay(0)
        return [event["value"] for _, event in records], self.log.corrupt_lines


CLIENTS = {
    "journal": JournalClient,
    "quarantine": QuarantineClient,
    "wal": WALClient,
}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(CLIENTS)),
    values=st.lists(st.text(max_size=6), min_size=1, max_size=6),
    new_value=st.text(max_size=6),
    data=st.data(),
)
def test_a_torn_log_loads_its_written_prefix_and_takes_new_appends(
    kind, values, new_value, data
):
    client_type = CLIENTS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state" / "records.log"
        writer = client_type(path)
        for index, value in enumerate(values):
            writer.write(index, value)
        lines = [
            client_type.line(i, v).encode("ascii") for i, v in enumerate(values)
        ]
        written = path.read_bytes()
        assert written == b"".join(lines)  # the pinned byte format

        # Any byte, with extra weight on "only the last newline was lost".
        newline_lost = [end - 1 for end in accumulate(map(len, lines))]
        cut = data.draw(
            st.integers(0, len(written)) | st.sampled_from(newline_lost),
            label="cut",
        )
        path.write_bytes(written[:cut])
        # A record is fully written when at most its newline is missing.
        complete, start = 0, 0
        for line in lines:
            if cut < start + len(line) - 1:
                break
            complete, start = complete + 1, start + len(line)
        torn = cut > start and complete < len(values)

        reopened = client_type(path)
        assert reopened.loaded() == (values[:complete], int(torn))

        new_index = complete if client_type.repairs else len(values)
        reopened.write(new_index, new_value)
        new_line = client_type.line(new_index, new_value).encode("ascii")
        prefix = written[:start] if torn and client_type.repairs else written[:cut]
        if prefix and not prefix.endswith(b"\n"):
            prefix += b"\n"
        assert path.read_bytes() == prefix + new_line

        fresh = client_type(path)
        kept_torn = torn and not client_type.repairs
        assert fresh.loaded() == (values[:complete] + [new_value], int(kept_torn))


@pytest.mark.parametrize("kind", sorted(CLIENTS))
def test_a_directory_path_is_rejected(tmp_path, kind):
    with pytest.raises(ConfigurationError, match="directory"):
        CLIENTS[kind](tmp_path)


def test_line_log_reads_none_for_every_corrupt_line(tmp_path):
    path = tmp_path / "records.log"
    path.write_text(
        "\n".join(
            [
                "not json at all",
                '{"version": 2, "key": "other schema"}',
                "[1, 2]",
                '{"version": 1}',
                '{"version": 1, "key": "ok"}',
            ]
        )
        + "\n\n",
        encoding="ascii",
    )
    log = LineLog(path, version=1, what="test")
    assert list(log.read(lambda record: record["key"])) == [
        None, None, None, None, "ok",
    ]
    assert list(LineLog(tmp_path / "missing", 1, "test").read(dict)) == []


def test_publish_atomic_removes_its_temp_file_on_an_interrupt(
    tmp_path, monkeypatch
):
    target = tmp_path / "out" / "file.json"
    publish_atomic(target, "old")

    def interrupt(fd):
        raise KeyboardInterrupt

    monkeypatch.setattr("os.fsync", interrupt)
    with pytest.raises(KeyboardInterrupt):
        publish_atomic(target, "new")
    monkeypatch.undo()
    assert [p.name for p in target.parent.iterdir()] == ["file.json"]
    assert target.read_text(encoding="ascii") == "old"

