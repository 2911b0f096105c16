"""Command-line surface: which commands leave files behind."""

from fusedet import cli


def test_gradcheck_is_read_only(tmp_path, monkeypatch):
    """``gradcheck`` creates no ``--out`` directory and writes no
    resolved config; the verification itself is stubbed to keep this fast."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_gradcheck", lambda seed: [("stub", 0.0)])
    assert cli.cli(["gradcheck"]) == 0
    assert cli.cli(["gradcheck", "--out", "elsewhere"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_writing_commands_keep_the_resolved_config(tmp_path, monkeypatch):
    """A command that writes still records its config under ``--out`` first,
    even when it then fails for a missing checkpoint."""
    monkeypatch.chdir(tmp_path)
    assert cli.cli(["eval"]) == 1
    assert (tmp_path / "runs" / "resolved-config.txt").is_file()
