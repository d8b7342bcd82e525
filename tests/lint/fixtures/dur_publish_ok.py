"""Fixture: durable publishes RPR201 must accept."""

import os


def publish_durably(tmp, final):
    """fsync before the rename — the contract RPR201 enforces."""
    with open(tmp, "w") as handle:
        handle.write("state")
        handle.flush()
        os.fsync(handle.fileno())
    os.rename(tmp, final)


def pathlib_publish_durably(tmp_path, final_path):
    """The method form is fine too, once the data is fsynced."""
    with open(tmp_path, "w") as handle:
        handle.write("state")
        handle.flush()
        os.fsync(handle.fileno())
    tmp_path.replace(final_path)


def string_replace_is_not_a_publish(label):
    """str.replace takes two arguments and is never matched."""
    return label.replace("-", "_")


def keyword_call_is_not_a_publish(frame):
    """A one-arg call with keywords is not the pathlib signature."""
    return frame.rename(columns={"a": "b"})
