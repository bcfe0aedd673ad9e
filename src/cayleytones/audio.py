"""Equal-temperament frequencies and sample-level rendering to WAV."""

from __future__ import annotations

import math
import os
from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from ._value import value_type
from .cayley import MAX_MODULUS
from .music import MusicalSystem, validate_system

# numpy and wave are imported inside each function that uses them, so that
# the subcommands that make no audio start without them; annotations name
# numpy only.
if TYPE_CHECKING:
    import numpy as np

SAMPLE_RATE = 44100
# RIFF sizes are 32-bit: the 36 header bytes and 2 bytes a frame must fit.
_WAV_MAX_FRAMES = (2**32 - 1 - 36) // 2
# Samples per block that one render thread makes at a time.
BLOCK = 32_768


class InvalidEnvelopeError(ValueError):
    """Raised when an envelope cannot fit inside a note's duration."""


def note_frequency(system: MusicalSystem, k: int, octave_shift: int = 0) -> float:
    """Frequency of note index k: f0 * s^(k/n), shifted by whole octaves.

    Indices are not reduced mod n; octaves above and below are reached
    by larger indices or by the explicit shift. The ladder is climbed by
    repeated multiplication so that transposing the base frequency by j
    steps reproduces note k+j bit for bit.
    """
    ratio = system.s ** (1.0 / system.n)
    f = system.f0
    for _ in range(k):
        f *= ratio
    for _ in range(-k):
        f /= ratio
    for _ in range(octave_shift):
        f *= system.s
    for _ in range(-octave_shift):
        f /= system.s
    return f


@value_type
class ToneSpec:
    """A frequency in Hz and a duration in seconds, both positive."""

    frequency: float
    duration: float

    def __post_init__(self) -> None:
        if not self.frequency > 0:
            raise ValueError(f"frequency must be positive, got {self.frequency}")
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not (math.isfinite(self.frequency) and math.isfinite(self.duration)):
            raise ValueError(
                f"frequency and duration must be finite, got {self.frequency} Hz "
                f"for {self.duration} s"
            )


@value_type
class SampleBuffer:
    """Immutable mono samples in [-1, 1] at a fixed rate."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self) -> None:
        import numpy as np

        samples = np.asarray(self.samples, dtype=np.float64)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __eq__(self, other: object) -> bool:
        # Equal rates and samples. Left unhashable: a hash of the samples'
        # bytes would tell apart -0.0 and 0.0, which compare equal.
        if other.__class__ is not self.__class__:
            return NotImplemented
        import numpy as np

        return self.sample_rate == other.sample_rate and np.array_equal(
            self.samples, other.samples
        )

    def __len__(self) -> int:
        return len(self.samples)


def _check_duration(duration: float) -> None:
    """Raise ValueError unless duration lasts at least one sample."""
    if round(SAMPLE_RATE * duration) == 0:
        raise ValueError(
            f"a {duration} s event is shorter than one sample at {SAMPLE_RATE} Hz"
        )


def _check_frequency(frequency: float, what: str) -> None:
    """Raise ValueError unless frequency is below the Nyquist frequency
    SAMPLE_RATE / 2, where it would alias; what names the sound."""
    if frequency >= SAMPLE_RATE / 2:
        raise ValueError(
            f"{what} sounds at {frequency} Hz, "
            f"not below the Nyquist frequency {SAMPLE_RATE / 2} Hz"
        )


def pure_tone(spec: ToneSpec) -> SampleBuffer:
    """samples[i] = sin(2*pi*f*t_i) with t_i = i / SAMPLE_RATE."""
    _check_duration(spec.duration)
    _check_frequency(spec.frequency, "the tone")
    return SampleBuffer(_event_samples(spec.duration, (spec.frequency,), None, 0.0))


@value_type
class Envelope:
    """Linear attack-decay-sustain-release amplitude profile in [0, 1]."""

    attack: float = 0.02
    decay: float = 0.05
    sustain_level: float = 0.8
    release: float = 0.05

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not (self.attack >= 0 and self.decay >= 0 and self.release >= 0):
            raise ValueError("envelope segment durations must be nonnegative")
        if not 0 <= self.sustain_level <= 1:
            raise ValueError("sustain level must lie in [0, 1]")

    def check_fits(self, duration: float) -> None:
        """Raise InvalidEnvelopeError if the segments outlast the note."""
        if self.attack + self.decay + self.release > duration:
            raise InvalidEnvelopeError(
                f"envelope spans {self.attack + self.decay + self.release}s "
                f"but the note lasts {duration}s"
            )

    def amplitudes(
        self, t: np.ndarray, duration: float, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The gain at each time in t, written into out if given.

        t must be non-decreasing, as every time axis here is, so that each
        segment is one slice of it; a t that is not is refused with
        ValueError. Attack, decay and release are written in that order, a
        later segment over an earlier one where they meet.
        """
        import numpy as np

        self.check_fits(duration)
        if not (t[1:] >= t[:-1]).all():
            raise ValueError("envelope times must be non-decreasing")
        a, d, r = np.searchsorted(
            t, (self.attack, self.attack + self.decay, duration - self.release)
        )
        g = np.empty(len(t), dtype=np.float64) if out is None else out
        g.fill(self.sustain_level)
        if self.attack > 0:
            g[:a] = t[:a] / self.attack
        if self.decay > 0:
            g[a:d] = (
                1.0 - (1.0 - self.sustain_level) * (t[a:d] - self.attack) / self.decay
            )
        if self.release > 0:
            g[r:] = self.sustain_level * (duration - t[r:]) / self.release
        return g


def _voice(
    out: np.ndarray,
    t: np.ndarray,
    g: Optional[np.ndarray],
    frequency: float,
    modulation_depth: float,
) -> None:
    """Write one voice, g(t) * sin(2*pi*f*(t + m*sin(2*pi*f*t))), into out.

    The steps, in this order, fix every output bit: phase*t, sin, depth*,
    t+, phase*, sin, then g*.
    """
    import numpy as np

    phase = 2.0 * np.pi * frequency
    np.multiply(t, phase, out=out)
    # t + 0 * sin(...) is t, so a zero depth skips the inner sin bit-exactly.
    if modulation_depth:
        np.sin(out, out=out)
        np.multiply(out, modulation_depth, out=out)
        np.add(t, out, out=out)
        np.multiply(out, phase, out=out)
    np.sin(out, out=out)
    if g is not None:
        np.multiply(out, g, out=out)


@value_type
class RenderEvent:
    """One plan entry: a note, a chord, or a rest.

    Notes are (residue, octave_shift) pairs; rests carry none.
    """

    kind: str
    duration: float
    notes: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("note", "chord", "rest"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if not self.duration > 0:
            raise ValueError("event durations must be positive")
        if not math.isfinite(self.duration):
            raise ValueError(f"event durations must be finite, got {self.duration}")
        if self.kind == "rest" and self.notes:
            raise ValueError("rests carry no notes")
        if self.kind == "note" and len(self.notes) != 1:
            raise ValueError("a note event carries exactly one note")
        if self.kind == "chord" and not self.notes:
            raise ValueError("a chord event carries at least one note")


@value_type
class RenderPlan:
    """A system, an ordered list of events to render back to back, and the
    envelope and phase-modulation depth every sounding event shares.

    Everything rendering needs is checked here, event by event in plan
    order, so a bad plan is refused before any audio is made and the error
    names its first bad event: every event lasts at least one sample, every
    note is a residue of Z_n at |octave| <= MAX_MODULUS and sounds below the
    Nyquist frequency SAMPLE_RATE / 2, where it would alias, and the
    envelope fits inside every sounding event. Last, the whole plan must
    fit in one WAV file.
    """

    system: MusicalSystem
    events: tuple[RenderEvent, ...]
    envelope: Optional[Envelope] = None
    modulation_depth: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.modulation_depth):
            raise ValueError(
                f"modulation_depth must be finite, got {self.modulation_depth}"
            )
        if not self.events:
            raise ValueError("a render plan needs at least one event")
        for event in self.events:
            _check_duration(event.duration)
            for note, octave in event.notes:
                # note_frequency climbs one step per index and per octave, so
                # both are bounded before its frequency is computed.
                if not 0 <= note < self.system.n:
                    raise ValueError(
                        f"note {note} outside residues of Z_{self.system.n}"
                    )
                if abs(octave) > MAX_MODULUS:
                    raise ValueError(
                        f"octave {octave} outside [-{MAX_MODULUS}, {MAX_MODULUS}]"
                    )
                spec = ToneSpec(note_frequency(self.system, note, octave), event.duration)
                _check_frequency(spec.frequency, f"note {note} at octave {octave}")
            if event.notes and self.envelope is not None:
                self.envelope.check_fits(event.duration)
        frames = sum(round(SAMPLE_RATE * event.duration) for event in self.events)
        if frames > _WAV_MAX_FRAMES:
            raise ValueError(
                f"the plan lasts {frames} samples; "
                f"a WAV file holds at most {_WAV_MAX_FRAMES}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "RenderPlan":
        _expect(data, dict, "a render plan")
        sysdata = _expect(data["system"], dict, "system")
        p, q = _integer(sysdata["p"], "p"), _integer(sysdata["q"], "q")
        system = validate_system(
            _integer(sysdata.get("n", p * q), "n"),
            p,
            q,
            _real(sysdata.get("s", 2.0), "s"),
            _real(sysdata.get("f0", 440.0), "f0"),
        )
        events = []
        for entry in _expect(data["events"], list, "events"):
            kind = _expect(entry, dict, "an event")["kind"]
            notes = []
            for item in _expect(entry.get("notes", []), list, "notes"):
                if isinstance(item, dict):
                    note, octave = item["note"], item.get("octave", 0)
                else:
                    note, octave = item, 0
                notes.append((_integer(note, "note"), _integer(octave, "octave")))
            duration = _real(entry["duration"], "duration")
            events.append(RenderEvent(kind, duration, tuple(notes)))
        return cls(
            system,
            tuple(events),
            envelope_from_dict(data.get("envelope")),
            _real(data.get("modulation_depth", 0.0), "modulation_depth"),
        )


def _expect(value, kind: type, what: str):
    """value itself if it has the JSON shape kind (dict or list)."""
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} must be {shape}, got {type(value).__name__}")
    return value


def _integer(value, what: str) -> int:
    """value itself if it is a JSON integer, not a float or a boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _real(value, what: str) -> float:
    """float(value) if value is a JSON number; booleans, strings, null, lists
    and objects are refused in one line."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(
            f"{what} must be finite, got an integer past the float range"
        ) from None


def envelope_from_dict(data: Optional[dict]) -> Optional[Envelope]:
    """Envelope from a plan file's optional 'envelope' object."""
    if data is None:
        return None
    _expect(data, dict, "envelope")
    # Every Envelope field has a default, so these are all of them, in order.
    return Envelope(
        *(
            _real(data.get(name, default), name)
            for name, default in Envelope._field_defaults.items()
        )
    )


def _thread_count() -> int:
    """The CPUs this process may run on: one render thread each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _batches(plan: RenderPlan) -> Iterator[list[tuple]]:
    """The plan's blocks in order, gathered into batches of at most BLOCK
    samples: (duration, frequencies, start, stop) for each block, where
    each event is cut into blocks of at most BLOCK samples."""
    batch, samples = [], 0
    for event in plan.events:
        frequencies = [
            note_frequency(plan.system, note, octave) for note, octave in event.notes
        ]
        count = round(SAMPLE_RATE * event.duration)
        for start in range(0, count, BLOCK):
            stop = min(start + BLOCK, count)
            if samples + stop - start > BLOCK:
                yield batch
                batch, samples = [], 0
            batch.append((event.duration, frequencies, start, stop))
            samples += stop - start
    yield batch


def _render_events(plan: RenderPlan) -> Iterator[np.ndarray]:
    """The plan's samples in blocks of at most BLOCK, in plan order.

    Batches of blocks (see _batches) are made on one thread per CPU
    (numpy's sin releases the GIL), at most one batch per thread at a time:
    the next is sent once the oldest is written. Every array is allocated
    here, on the calling thread, before the first batch is sent: one set of
    time axis, envelope, voice and output arrays per thread, reused batch
    after batch, and each block is copied out of its set as it is yielded.
    So memory is set by BLOCK and the thread count, not by the plan or the
    order in which the threads run. Each sample is made by the same
    elementwise steps whatever its block, so the output does not depend on
    the thread count.
    """
    # Imported here, as only rendering needs it and it slows every start-up.
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    threads = _thread_count()
    counts = [round(SAMPLE_RATE * event.duration) for event in plan.events]
    # The time axis, envelope and voice hold one block; the output one batch.
    block, batch_size = min(BLOCK, max(counts)), min(BLOCK, sum(counts))
    ramp = np.arange(block, dtype=np.float64)
    works = [(*np.empty((3, block)), np.empty(batch_size)) for _ in range(threads)]
    with ThreadPoolExecutor(threads) as pool:
        pending = deque()
        for i, batch in enumerate(_batches(plan)):
            if len(pending) == threads:
                yield from (piece.copy() for piece in pending.popleft().result())
            # Set i % threads last served batch i - threads, copied out above.
            pending.append(
                pool.submit(
                    _make_blocks,
                    batch,
                    (ramp, *works[i % threads]),
                    plan.envelope,
                    plan.modulation_depth,
                )
            )
        while pending:
            yield from (piece.copy() for piece in pending.popleft().result())


def _make_blocks(
    batch: list[tuple],
    work: tuple[np.ndarray, ...],
    envelope: Optional[Envelope],
    modulation_depth: float,
) -> list[np.ndarray]:
    """Each block of a batch, made in turn in the work arrays (ramp, t, g,
    voice, output) and laid end to end in output."""
    *scratch, output = work
    pieces, offset = [], 0
    for duration, frequencies, start, stop in batch:
        mixed = output[offset : offset + stop - start]
        pieces.append(
            _event_samples(
                duration,
                frequencies,
                envelope,
                modulation_depth,
                start,
                stop,
                (*scratch, mixed),
            )
        )
        offset += stop - start
    return pieces


def _event_samples(
    duration: float,
    frequencies: Sequence[float],
    envelope: Optional[Envelope],
    modulation_depth: float,
    start: int = 0,
    stop: Optional[int] = None,
    work: Optional[tuple[np.ndarray, ...]] = None,
) -> np.ndarray:
    """Samples start to stop (by default all) of one event: the equal mix
    of its voices, or silence.

    The block is made in work, float64 arrays (ramp, t, g, voice, mixed) of
    at least stop - start samples with ramp[k] = k, or in new ones. The
    time axis and the envelope are made once for all voices, which share
    the event's duration, and each voice is added to the mix as soon as it
    is made. The result is the start of mixed.
    """
    import numpy as np

    if stop is None:
        stop = round(SAMPLE_RATE * duration)
    count = stop - start
    if work is None:
        ramp = np.arange(count, dtype=np.float64)
        work = (ramp, *np.empty((3, count)), np.empty(count))
    ramp, t, g, voice, mixed = (array[:count] for array in work)
    mixed.fill(0.0)
    if not frequencies:
        return mixed
    # (k + start) / rate is exact in k + start, so this is arange / rate.
    np.add(ramp, start, out=t)
    np.divide(t, SAMPLE_RATE, out=t)
    g = None if envelope is None else envelope.amplitudes(t, duration, out=g)
    weight = 1.0 / len(frequencies)
    for frequency in frequencies:
        _voice(voice, t, g, frequency, modulation_depth)
        np.multiply(voice, weight, out=voice)
        mixed += voice
    return mixed


def render(plan: RenderPlan) -> SampleBuffer:
    """The plan's blocks (see _render_events) concatenated into one buffer;
    rests render as silence."""
    import numpy as np

    return SampleBuffer(np.concatenate(list(_render_events(plan))))


def _quantize(samples: np.ndarray) -> np.ndarray:
    """Round half away from zero to int16, clamping to the valid range.

    Works in place on one scaled copy: floor(|x| * 32767 + 0.5), then the
    sign of x put back (so -0.0 stays -0.0 and quantizes to 0). x is finite:
    _write_pieces checks that first. Each step is a plain ufunc, which
    releases the GIL to the render threads.
    """
    import numpy as np

    scaled = np.abs(samples)
    scaled *= 32767.0
    scaled += 0.5
    np.floor(scaled, out=scaled)
    np.copysign(scaled, samples, out=scaled)
    np.clip(scaled, -32768, 32767, out=scaled)
    return scaled.astype("<i2")


def _write_pieces(pieces: Iterable[np.ndarray], sample_rate: int, path) -> int:
    """Write the pieces in order as one WAV file; return its frame count.

    Each piece is checked and quantized as it arrives, so only one is held
    at a time. If anything fails once the file is open, including a piece
    that is not finite, the partial file is removed and the error re-raised.
    """
    import wave

    import numpy as np

    frames = 0
    # Opening the file first keeps a bad path to the one OSError: given a
    # path it cannot open, wave.open also prints a traceback on cleanup.
    with open(path, "wb") as raw:
        try:
            with wave.open(raw, "wb") as handle:
                handle.setnchannels(1)
                handle.setsampwidth(2)
                handle.setframerate(sample_rate)
                for piece in pieces:
                    if not np.isfinite(piece).all():
                        raise ValueError(
                            "cannot write non-finite samples (NaN or inf) to a WAV file"
                        )
                    handle.writeframesraw(_quantize(piece))
                    frames += len(piece)
        except BaseException:
            raw.close()
            # A device such as /dev/null is not a partial file to remove.
            if os.path.isfile(path):
                os.remove(path)
            raise
    return frames


def write_wav(buffer: SampleBuffer, path) -> None:
    """16-bit signed little-endian PCM, mono, standard RIFF header."""
    _write_pieces([buffer.samples], buffer.sample_rate, path)


def read_wav(path) -> SampleBuffer:
    """Read back a mono 16-bit WAV into samples scaled to [-1, 1]."""
    import wave

    import numpy as np

    with wave.open(str(path), "rb") as handle:
        if handle.getnchannels() != 1 or handle.getsampwidth() != 2:
            raise ValueError("expected mono 16-bit PCM")
        rate = handle.getframerate()
        raw = handle.readframes(handle.getnframes())
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return SampleBuffer(samples, rate)
