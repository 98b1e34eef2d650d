"""Loading and cleaning raw gaze logs.

Raw session files store coordinates as text like "(1250, 680)" and mix
gaze readings, object placements and game events in one CSV. This walk
shows the parsing rules, the four cleaning rules applied while a file
loads, timestamp normalization, and the column form of the samples.
"""
from pathlib import Path
import tempfile

from gazescore import ScreenGeometry, load_level_csv, parse_coordinate_string

geometry = ScreenGeometry()  # 1920x1080, screen coordinates
HEADER = "timestamp_ms,gaze,object_pos,aoi_w,aoi_h,event_kind,event_correct\n"


def load(csv_body: str, tmp: str):
    path = Path(tmp) / "demo_level1.csv"
    path.write_text(HEADER + csv_body)
    return load_level_csv(path, level=1, student_id="demo", geometry=geometry)


print("1. Coordinate strings parse into float pairs:")
for text in ["(1250, 680)", "( 12.5 , 99 )", "(0, 0)"]:
    print(f"   {text!r:20} -> {parse_coordinate_string(text)}")

with tempfile.TemporaryDirectory() as tmp:
    print("\n2. Loading drops tracking losses, parse failures, off-screen points")
    print("   and readings without a timestamp:")
    session = load(
        """1005,"(0, 0)",,,,,
1010,"(100, 200)",,,,,
1015,"(oops",,,,,
1020,"(2500, 200)",,,,,
,"(40, 50)",,,,,
1003,"(50, 60)",,,,,
""",
        tmp,
    )
    # The rows above: a tracking loss, a kept reading, a malformed one, one
    # off screen, one without a timestamp, and a kept one that sorts first.
    print(f"   kept {len(session.samples)} of 6 gaze readings, "
          f"dropped {session.dropped_samples}")

    print("\n3. Samples are sorted and shifted so the session starts at zero, gaps intact:")
    for s in session.samples:
        print(f"   t={s.t_ms:>3} ms  ({s.x_px}, {s.y_px})")

    print("\n4. The samples are held as read-only columns:")
    samples = session.samples
    print(f"   t_ms {samples.t_ms.dtype} {samples.t_ms.tolist()}")
    print(f"   x_px {samples.x_px.dtype} {samples.x_px.tolist()}")
    print(f"   y_px {samples.y_px.dtype} {samples.y_px.tolist()}")

    print("\n5. Placements and events load from the same file:")
    session = load(
        """1000,"(300, 800)",,,,,
1016,"(310, 805)",,,,,
1020,,"(480, 810)",200,150,,
1032,"(480, 812)",,,,,
1050,,,,,mouse_click,true
""",
        tmp,
    )
    print(f"   {len(session.samples)} samples, {len(session.placements)} placement(s), "
          f"{len(session.events)} event(s), dropped={session.dropped_samples}")
    print(f"   first sample t={session.samples[0].t_ms} ms (normalized), "
          f"placement at t={session.placements[0].t_ms} ms")
