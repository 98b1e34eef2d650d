"""The tracker model is deterministic and agrees with the loader row for row."""
import tracker
from gazescore.ingest import load_level_csv


def test_same_seed_same_bytes(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    tracker.write_level_log(a, 42)
    tracker.write_level_log(b, 42)
    tracker.write_level_log(c, 43)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_loader_keeps_exactly_the_valid_rows(tmp_path):
    for seed in range(4):
        path = tmp_path / f"s{seed}.csv"
        log = tracker.write_level_log(path, seed, duration_s=20.0)
        session = load_level_csv(path, 2, "T")
        assert tuple((s.t_ms, s.x_px, s.y_px) for s in session.samples) == log.valid
        assert session.dropped_samples == log.dropped > 0
        assert len(session.placements) == log.placements
        assert len(session.events) == log.events
        assert log.rows == path.read_bytes().count(b"\r\n") - 1


def test_log_has_tracker_artefacts(tmp_path):
    path = tmp_path / "x.csv"
    log = tracker.write_level_log(path, 7, duration_s=60.0)
    text = path.read_bytes().decode("utf-8")
    assert "\r\n" in text and "\n" not in text.replace("\r\n", "")
    assert '"(0, 0)"' in text                       # blink bursts
    assert any(cell in text for cell in tracker.MALFORMED_CELLS)
    first = text.splitlines()[1].split(",")[0]
    assert "." in first and len(first.split(".")[0]) == 13  # fractional epoch ms
    assert 0.9 < len(log.valid) / (len(log.valid) + log.dropped) < 0.99
    gaps = [b[0] - a[0] for a, b in zip(log.valid, log.valid[1:])]
    assert 14 <= sorted(gaps)[len(gaps) // 2] <= 19  # about 60 Hz


def test_refused_clean_level_is_drawn_again(monkeypatch):
    import random

    import gen
    from gazescore import synth

    real, calls = synth.generate_session, []

    def refuse_first(profile):
        calls.append(profile)
        if len(calls) == 1:
            raise synth.ProfileError("stimulus block too small")
        return real(profile)

    monkeypatch.setattr(synth, "generate_session", refuse_first)
    session, lengths = gen._clean_level(random.Random(3), 2)
    assert len(calls) == 2 and calls[0].seed != calls[1].seed
    assert session.level == 2 and tuple(calls[1].engagement_period_lengths_ms) == lengths
