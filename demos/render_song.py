"""Render the Z_12 major scale and a closing chord to a WAV file."""

import os

from cayleytones import (
    Envelope,
    MAJOR,
    RenderEvent,
    RenderPlan,
    note_frequency,
    render,
    scale,
    system_from_factors,
    triad,
    write_wav,
)

system = system_from_factors(4, 3)

notes = scale(system, 0, MAJOR).notes
print("scale notes:", notes)
for k in notes[:-1]:
    print(f"  note {k:2d} -> {note_frequency(system, k):9.3f} Hz")

events = [RenderEvent("note", 0.3, ((k, 0),)) for k in notes[:-1]]
events.append(RenderEvent("note", 0.6, ((0, 1),)))  # octave up
events.append(RenderEvent("rest", 0.2))
chord = triad(system, 0, MAJOR)
events.append(RenderEvent("chord", 1.0, tuple((x, 0) for x in chord.notes)))

envelope = Envelope(attack=0.02, decay=0.05, sustain_level=0.8, release=0.05)
plan = RenderPlan(system, tuple(events), envelope)
buffer = render(plan)

out = os.path.join(os.path.dirname(__file__), "major_scale.wav")
write_wav(buffer, out)
print(f"wrote {out}: {len(buffer)} samples at {buffer.sample_rate} Hz")
