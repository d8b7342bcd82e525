"""Fixture: rename-family durable publishes RPR201 must flag."""

import os
import shutil


def publish_via_rename(tmp, final):
    """os.rename dodges the RPR201 os.replace audit entirely."""
    with open(tmp, "w") as handle:
        handle.write("state")
    os.rename(tmp, final)  # RPR201


def publish_via_move(tmp, final):
    """shutil.move is a rename in a trenchcoat."""
    shutil.move(tmp, final)  # RPR201


def publish_via_pathlib(tmp_path, final_path):
    """Path.replace(target): one-argument method form, no fsync."""
    tmp_path.write_text("state")
    tmp_path.replace(final_path)  # RPR201


def fsync_after_the_fact(tmp_path, final_path, fd):
    """The fsync happens too late — after the publish."""
    tmp_path.rename(final_path)  # RPR201
    os.fsync(fd)


def outer_fsync_inner_rename(tmp, final, fd):
    """An enclosing fsync must not excuse a nested function's rename."""
    os.fsync(fd)

    def publish():
        os.rename(tmp, final)  # RPR201

    return publish
