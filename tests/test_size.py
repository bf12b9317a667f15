"""The library's size as two first-class numbers: the line count of
src/ska/*.py and the length of ska.__all__, each held to the ceiling in
src_size.txt beside this file. A change that grows either raises it there."""

from pathlib import Path

import ska

HERE = Path(__file__).resolve().parent


def test_library_stays_within_its_recorded_size():
    lines, exports = (int(line) for line in (HERE / "src_size.txt").read_text().splitlines()
                      if line and not line.startswith("#"))
    counted = sum(p.read_bytes().count(b"\n") for p in Path(ska.__file__).parent.glob("*.py"))
    assert counted <= lines, f"src/ska has {counted} lines, over the {lines} in src_size.txt"
    assert len(ska.__all__) <= exports, \
        f"ska.__all__ has {len(ska.__all__)} names, over the {exports} in src_size.txt"
