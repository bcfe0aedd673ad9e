"""Tone generation, envelopes, mixing, rendering, WAV round-trips."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cayleytones.audio import (
    SAMPLE_RATE,
    Envelope,
    InvalidEnvelopeError,
    RenderEvent,
    RenderPlan,
    SampleBuffer,
    ToneSpec,
    envelope_from_dict,
    note_frequency,
    pure_tone,
    read_wav,
    render,
    write_wav,
    _event_samples,
    _quantize,
    _thread_count,
)
from cayleytones.music import system_from_factors

Z12 = system_from_factors(4, 3)
INF, NAN = float("inf"), float("nan")


def test_pure_tone_sample_count_and_range():
    buf = pure_tone(ToneSpec(440.0, 1.0))
    assert len(buf) == 44100
    assert buf.sample_rate == SAMPLE_RATE
    assert np.all(buf.samples <= 1.0)
    assert np.all(buf.samples >= -1.0)


def test_pure_tone_zero_crossings():
    """A 440 Hz second crosses zero about 880 times."""
    buf = pure_tone(ToneSpec(440.0, 1.0))
    signs = np.sign(buf.samples)
    crossings = int(np.sum(signs[1:] * signs[:-1] < 0))
    assert abs(crossings - 880) <= 2


def test_pure_tone_spectral_peak():
    buf = pure_tone(ToneSpec(440.0, 1.0))
    spectrum = np.abs(np.fft.rfft(buf.samples))
    peak = np.fft.rfftfreq(len(buf), 1.0 / SAMPLE_RATE)[int(np.argmax(spectrum))]
    assert abs(peak - 440.0) < 1.0


@pytest.mark.parametrize(
    "spec, message",
    [
        pytest.param(ToneSpec(440.0, 1e-6), "shorter than one sample", id="sub-sample"),
        pytest.param(
            ToneSpec(30000.0, 0.01), "not below the Nyquist frequency", id="above-nyquist"
        ),
    ],
)
def test_pure_tone_makes_the_render_plan_checks(spec, message):
    with pytest.raises(ValueError, match=message):
        pure_tone(spec)


def test_pure_tone_holds_only_its_samples():
    samples = pure_tone(ToneSpec(440.0, 0.1)).samples
    owner = samples
    while owner.base is not None:
        owner = owner.base
    assert owner.nbytes == samples.nbytes


def test_tone_spec_validation():
    with pytest.raises(ValueError):
        ToneSpec(0.0, 1.0)
    with pytest.raises(ValueError):
        ToneSpec(440.0, 0.0)
    for frequency, duration in ((INF, 1.0), (NAN, 1.0), (440.0, INF)):
        with pytest.raises(ValueError):
            ToneSpec(frequency, duration)


def test_note_frequency_ratio():
    f0 = note_frequency(Z12, 0)
    assert f0 == 440.0
    for k in range(1, 25):
        ratio = note_frequency(Z12, k) / note_frequency(Z12, k - 1)
        assert abs(ratio - 2 ** (1 / 12)) / 2 ** (1 / 12) <= 1e-12


def test_note_frequency_octave_shift():
    assert note_frequency(Z12, 0, octave_shift=1) == pytest.approx(880.0, rel=1e-12)
    assert note_frequency(Z12, 12) == pytest.approx(880.0, rel=1e-12)


def test_transposition_covariance_is_bit_exact():
    """Note k+j equals note k computed from the note-j base frequency."""
    for j in range(1, 12):
        shifted = system_from_factors(4, 3, f0=note_frequency(Z12, j))
        for k in range(12):
            assert note_frequency(shifted, k) == note_frequency(Z12, k + j)


def test_modulation_changes_signal():
    events = (RenderEvent("note", 0.25, ((0, 0),)),)
    plain = render(RenderPlan(Z12, events))
    warped = render(RenderPlan(Z12, events, modulation_depth=0.3))
    assert not np.array_equal(plain.samples, warped.samples)
    assert np.max(np.abs(warped.samples)) <= 1.0


def test_envelope_attack_ramp_is_monotone():
    spec = ToneSpec(440.0, 0.5)
    env = Envelope(attack=0.1, decay=0.1, sustain_level=0.7, release=0.1)
    t = np.arange(round(0.5 * SAMPLE_RATE)) / SAMPLE_RATE
    g = env.amplitudes(t, 0.5)
    attack = g[t < 0.1]
    assert np.all(np.diff(attack) >= 0)
    assert g[0] == 0.0
    sustain = g[(t >= 0.25) & (t < 0.35)]
    assert np.allclose(sustain, 0.7)


def test_envelope_must_fit_duration():
    env = Envelope(attack=0.3, decay=0.3, sustain_level=0.5, release=0.5)
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    with pytest.raises(InvalidEnvelopeError):
        env.amplitudes(t, 1.0)


def _amplitudes_by_masks(envelope, t, duration):
    """Envelope.amplitudes as first written, one boolean mask a segment over
    any t; kept as the reference for the slice code."""
    g = np.full(len(t), envelope.sustain_level)
    if envelope.attack > 0:
        m = t < envelope.attack
        g[m] = t[m] / envelope.attack
    if envelope.decay > 0:
        m = (t >= envelope.attack) & (t < envelope.attack + envelope.decay)
        g[m] = (
            1.0
            - (1.0 - envelope.sustain_level) * (t[m] - envelope.attack) / envelope.decay
        )
    if envelope.release > 0:
        m = t >= duration - envelope.release
        g[m] = envelope.sustain_level * (duration - t[m]) / envelope.release
    return g


def _on_grid(least, most):
    """Times k / SAMPLE_RATE, which can equal a sample's time exactly."""
    return st.integers(least, most).map(lambda k: k / SAMPLE_RATE)


@st.composite
def _envelope_blocks(draw):
    """An envelope, a duration it fits, and one block of that duration's
    time axis, (k + start) / SAMPLE_RATE for k < length, as render makes it."""
    duration = draw(st.floats(1e-3, 1.0) | _on_grid(44, SAMPLE_RATE))
    count = round(SAMPLE_RATE * duration)
    # A quarter each, so that the three segments fit however they round.
    segment = st.just(0.0) | st.floats(0.0, duration / 4) | _on_grid(0, count // 4)
    level = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    envelope = draw(st.builds(Envelope, segment, segment, level, segment))
    start = draw(st.integers(0, count - 1))
    length = draw(st.integers(0, count - start))
    t = (np.arange(length, dtype=np.float64) + start) / SAMPLE_RATE
    return envelope, duration, t


@settings(max_examples=300, deadline=None)
@given(_envelope_blocks(), st.lists(st.floats(0.0, 1.0), max_size=3))
def test_envelope_equals_the_mask_formula_bit_for_bit(block, longer):
    envelope, duration, t = block
    g = envelope.amplitudes(t, duration)
    assert g.tobytes() == _amplitudes_by_masks(envelope, t, duration).tobytes()
    # A column of durations the envelope fits, as a render step's release
    # batch passes it: one row each, that of the duration alone.
    span = envelope.attack + envelope.decay + envelope.release
    durations = [duration, span, *(span + x for x in longer)]
    rows = envelope.amplitudes(t, np.array(durations)[:, None])
    assert rows.shape == (len(durations), len(t))
    for row, one in zip(rows, durations):
        assert row.tobytes() == envelope.amplitudes(t, one).tobytes()
    if span > 0:
        durations.append(np.nextafter(span, 0.0))
        with pytest.raises(InvalidEnvelopeError):
            envelope.amplitudes(t, np.array(durations)[:, None])


@pytest.mark.parametrize("t", [[0.0, 0.2, 0.1], [0.0, NAN, 0.1], [NAN, NAN]])
def test_envelope_refuses_times_out_of_order(t):
    with pytest.raises(ValueError, match="^envelope times must be non-decreasing$"):
        Envelope().amplitudes(np.array(t), 1.0)


def test_envelope_validation():
    with pytest.raises(ValueError):
        Envelope(attack=-0.1)
    with pytest.raises(ValueError):
        Envelope(sustain_level=1.5)
    for field in ("attack", "decay", "sustain_level", "release"):
        with pytest.raises(ValueError):
            Envelope(**{field: NAN})


@pytest.mark.parametrize(
    "make",
    [
        lambda: pure_tone(ToneSpec(440.0, 1e305)),
        lambda: RenderPlan(Z12, (RenderEvent("note", 1e305, ((0, 0),)),)),
        lambda: RenderPlan(Z12, (RenderEvent("rest", 2**31 / SAMPLE_RATE),)),
    ],
    ids=["tone", "note", "rest"],
)
def test_events_longer_than_a_wav_file_are_refused_before_rounding(make):
    # 44100 * 1e305 overflows to inf, which round() cannot convert.
    with pytest.raises(ValueError, match="samples a WAV file holds"):
        make()


@pytest.mark.parametrize(
    "segments",
    [{"attack": 1e308, "decay": 1e308}, {"release": INF}, {"attack": INF, "decay": 0.0}],
)
def test_envelope_segments_must_sum_to_a_finite_time(segments):
    with pytest.raises(ValueError, match="envelope segments must sum to a finite time"):
        Envelope(**segments)


def test_envelope_from_dict():
    assert envelope_from_dict(None) is None
    env = envelope_from_dict({"attack": 0.1, "sustain_level": 0.5})
    assert env.attack == 0.1
    assert env.sustain_level == 0.5
    assert env.decay == 0.05


def test_mix_stays_bounded():
    frequencies = (440.0, 550.0, 660.0)
    notes = [pure_tone(ToneSpec(f, 0.1)) for f in frequencies]
    mixed = _event_samples(0.1, frequencies, None, 0.0)
    bound = max(float(np.max(np.abs(b.samples))) for b in notes)
    assert np.max(np.abs(mixed)) <= bound + 1e-12


def test_sample_buffer_is_read_only():
    buf = pure_tone(ToneSpec(440.0, 0.01))
    with pytest.raises(ValueError):
        buf.samples[0] = 2.0


def test_render_event_validation():
    with pytest.raises(ValueError):
        RenderEvent("note", 0.5, ())
    with pytest.raises(ValueError):
        RenderEvent("rest", 0.5, ((0, 0),))
    with pytest.raises(ValueError):
        RenderEvent("gong", 0.5, ((0, 0),))
    with pytest.raises(ValueError):
        RenderEvent("note", -1.0, ((0, 0),))
    with pytest.raises(ValueError):
        RenderEvent("rest", INF)


def test_render_concatenates_events():
    plan = RenderPlan(
        Z12,
        (
            RenderEvent("note", 0.5, ((0, 0),)),
            RenderEvent("rest", 0.5, ()),
            RenderEvent("chord", 0.5, ((0, 0), (4, 0), (7, 0))),
        ),
    )
    buf = render(plan)
    assert len(buf) == 3 * round(0.5 * SAMPLE_RATE)
    rest = buf.samples[22050:44100]
    assert np.all(rest == 0.0)


def test_render_plan_from_dict():
    data = {
        "system": {"p": 4, "q": 3},
        "events": [
            {"kind": "note", "duration": 0.5, "notes": [0]},
            {"kind": "chord", "duration": 0.5, "notes": [{"note": 4, "octave": -1}, 7]},
        ],
    }
    plan = RenderPlan.from_dict(data)
    assert plan.system.n == 12
    assert plan.events[1].notes == ((4, -1), (7, 0))
    assert (plan.envelope, plan.modulation_depth) == (None, 0.0)
    data.update(envelope={"attack": 0.1}, modulation_depth=0.01)
    plan = RenderPlan.from_dict(data)
    assert (plan.envelope, plan.modulation_depth) == (Envelope(attack=0.1), 0.01)


def test_render_plan_rejects_stray_notes():
    with pytest.raises(ValueError):
        RenderPlan(Z12, (RenderEvent("note", 0.5, ((12, 0),)),))


# Its segments span 0.15 s.
LONG_ENVELOPE = Envelope(attack=0.05, decay=0.05, sustain_level=0.5, release=0.05)


@pytest.mark.parametrize(
    "event, envelope, depth, error, message",
    [
        pytest.param(
            RenderEvent("note", 1e-5, ((0, 0),)), None, 0.0, ValueError, "one sample",
            id="sub-sample",
        ),
        pytest.param(
            RenderEvent("note", 0.5, ((0, 6),)), None, 0.0, ValueError, "Nyquist",
            id="above-nyquist",
        ),
        pytest.param(
            RenderEvent("chord", 0.1, ((0, 0), (4, 0))), LONG_ENVELOPE, 0.0,
            InvalidEnvelopeError, "envelope spans",
            id="envelope-outlasts-chord",
        ),
        pytest.param(
            RenderEvent("note", 0.5, ((0, 0),)), None, NAN, ValueError, "must be finite",
            id="nan-depth",
        ),
        pytest.param(
            RenderEvent("note", 0.5, ((0, 0),)), None, 1e308, ValueError,
            "^note 0 at octave 0 with modulation_depth 1e\\+308 has a phase past",
            id="depth-past-the-float-range",
        ),
        # Phases of about 2*pi*440*1e300 are finite, and sin takes them.
        pytest.param(
            RenderEvent("note", 0.1, ((0, 0),)), None, 1e300, None, None,
            id="huge-finite-depth",
        ),
        # A rest is silence under any envelope, so it may be the shorter.
        pytest.param(
            RenderEvent("rest", 0.1), LONG_ENVELOPE, 0.0, None, None,
            id="rest-shorter-than-envelope",
        ),
    ],
)
def test_render_plan_checks_every_event_when_built(event, envelope, depth, error, message):
    events = (RenderEvent("note", 0.5, ((0, 0),)), event)
    if error is None:
        plan = RenderPlan(Z12, events, envelope, depth)
        assert len(render(plan)) == round(0.6 * SAMPLE_RATE)
        return
    with pytest.raises(error, match=message):
        RenderPlan(Z12, events, envelope, depth)


def test_scale_plan_renders_one_event_per_note(tmp_path):
    from cayleytones.music import MAJOR, scale

    notes = scale(Z12, 0, MAJOR).notes
    plan = RenderPlan(
        Z12, tuple(RenderEvent("note", 0.125, ((x, 0),)) for x in notes)
    )
    assert len(plan.events) == 8
    buf = render(plan)
    assert len(buf) == len(notes) * round(0.125 * SAMPLE_RATE)


def test_wav_round_trip(tmp_path):
    buf = pure_tone(ToneSpec(440.0, 0.25))
    path = tmp_path / "tone.wav"
    write_wav(buf, path)
    back = read_wav(path)
    assert back.sample_rate == SAMPLE_RATE
    assert len(back) == len(buf)
    assert np.max(np.abs(back.samples - buf.samples)) <= 1.0 / 32768


def test_wav_byte_length(tmp_path):
    buf = pure_tone(ToneSpec(440.0, 0.25))
    path = tmp_path / "tone.wav"
    write_wav(buf, path)
    assert path.stat().st_size == 44 + 2 * len(buf)


def test_an_empty_buffer_writes_the_header_alone(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(SampleBuffer(np.zeros(0)), path)
    assert path.stat().st_size == 44
    assert len(read_wav(path)) == 0


@pytest.mark.parametrize(
    "rate, message",
    [
        (0, "sample_rate must be 1 to 2147483647 Hz, got 0"),
        (-1, "sample_rate must be 1 to 2147483647 Hz, got -1"),
        (2**31, "sample_rate must be 1 to 2147483647 Hz, got 2147483648"),
        (44100.5, "sample_rate must be an integer, got 44100.5"),
        (True, "sample_rate must be an integer, got True"),
    ],
)
def test_sample_buffer_refuses_a_rate_a_wav_header_cannot_hold(rate, message):
    with pytest.raises(ValueError) as info:
        SampleBuffer(np.zeros(2), rate)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "samples, message",
    [
        (np.zeros((3, 4)), "samples must be one-dimensional, got shape (3, 4)"),
        (np.float64(0.5), "samples must be one-dimensional, got shape ()"),
    ],
    ids=["2-d", "0-d"],
)
def test_sample_buffer_refuses_samples_that_are_not_one_dimensional(samples, message):
    with pytest.raises(ValueError) as info:
        SampleBuffer(samples)
    assert str(info.value) == message


def test_sample_buffer_copies_an_array_its_caller_can_still_write():
    samples = np.zeros(3)
    buffer = SampleBuffer(samples)
    samples[0] = 1.0
    assert samples[0] == 1.0
    assert buffer == SampleBuffer(np.zeros(3))
    # A read-only array is taken as it is.
    samples.setflags(write=False)
    assert SampleBuffer(samples).samples is samples


def test_sample_buffer_takes_a_numpy_integer_rate(tmp_path):
    path = tmp_path / "numpy-rate.wav"
    buffer = SampleBuffer(np.zeros(2), np.int64(8000))
    assert type(buffer.sample_rate) is int
    write_wav(buffer, path)
    assert read_wav(path) == SampleBuffer(np.zeros(2), 8000)


def test_the_highest_sample_rate_round_trips(tmp_path):
    path = tmp_path / "fast.wav"
    write_wav(SampleBuffer(np.zeros(2), 2**31 - 1), path)
    assert read_wav(path) == SampleBuffer(np.zeros(2), 2**31 - 1)


def test_read_wav_refuses_a_0_hz_file(tmp_path):
    path = tmp_path / "zero.wav"
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 40, b"WAVE", b"fmt ", 16, 1, 1, 0, 0, 2, 16,
        b"data", 4,
    )
    path.write_bytes(header + bytes(4))
    with pytest.raises(ValueError, match="got 0$"):
        read_wav(path)


def test_wav_header_fields(tmp_path):
    buf = pure_tone(ToneSpec(440.0, 0.1))
    path = tmp_path / "tone.wav"
    write_wav(buf, path)
    raw = path.read_bytes()
    assert raw[:4] == b"RIFF"
    assert raw[8:12] == b"WAVE"
    assert int.from_bytes(raw[22:24], "little") == 1  # mono
    assert int.from_bytes(raw[24:28], "little") == SAMPLE_RATE
    assert int.from_bytes(raw[34:36], "little") == 16  # bits per sample


def test_quantization_clips_extremes(tmp_path):
    loud = SampleBuffer(np.array([1.5, -1.5, 0.0, 1.0, -1.0]))
    path = tmp_path / "clip.wav"
    write_wav(loud, path)
    back = read_wav(path)
    assert abs(back.samples[0] - 1.0) < 2.0 / 32768
    assert abs(back.samples[1] + 1.0) < 2.0 / 32768
    assert back.samples[2] == 0.0


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_write_wav_rejects_non_finite_samples(tmp_path, bad):
    path = tmp_path / "bad.wav"
    with pytest.raises(ValueError):
        write_wav(SampleBuffer(np.array([0.0, bad, 0.5])), path)
    assert not path.exists()


def _voice_formula(spec, envelope, depth):
    """One voice, g(t) * sin(2*pi*f*(t + m*sin(2*pi*f*t))), in numpy."""
    t = np.arange(round(SAMPLE_RATE * spec.duration)) / SAMPLE_RATE
    phase = 2.0 * np.pi * spec.frequency
    warped = t + depth * np.sin(phase * t) if depth else t
    samples = np.sin(phase * warped)
    if envelope is not None:
        samples = _amplitudes_by_masks(envelope, t, spec.duration) * samples
    return samples


@st.composite
def _one_event_plans(draw):
    p, q = draw(st.sampled_from([(4, 3), (5, 2), (7, 4), (10, 3)]))
    system = system_from_factors(p, q)
    notes = draw(
        st.lists(st.tuples(st.integers(0, p * q - 1), st.integers(-1, 1)), max_size=8)
    )
    kind = "rest" if not notes else "note" if len(notes) == 1 else "chord"
    # Up to 88,200 samples, so an event may span three blocks.
    duration = draw(st.floats(0.05, 2.0))
    # Each segment at most 0.015 s, so the envelope fits every drawn duration.
    segment = st.floats(0.0, 0.015)
    envelope = draw(
        st.none() | st.builds(Envelope, segment, segment, st.floats(0, 1), segment)
    )
    depth = draw(st.just(0.0) | st.floats(1e-4, 2e-3))
    return RenderPlan(system, (RenderEvent(kind, duration, tuple(notes)),), envelope, depth)


@settings(max_examples=60, deadline=None)
@given(_one_event_plans())
def test_event_samples_equal_the_formula_bit_for_bit(plan):
    [event] = plan.events
    envelope, depth = plan.envelope, plan.modulation_depth
    samples = render(plan).samples
    specs = [
        ToneSpec(note_frequency(plan.system, note, octave), event.duration)
        for note, octave in event.notes
    ]
    if not specs:
        assert np.array_equal(samples, np.zeros(round(SAMPLE_RATE * event.duration)))
        return
    formula = np.zeros(len(samples))
    for spec in specs:
        formula += (1.0 / len(specs)) * _voice_formula(spec, envelope, depth)
    assert np.array_equal(samples, formula)
    if len(specs) == 1 and envelope is None and depth == 0.0:
        assert np.array_equal(pure_tone(specs[0]).samples, formula)


def test_thread_count_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert _thread_count() == 3
    # os.cpu_count() is None where the count cannot be found.
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _thread_count() == 1


def _quantize_by_masked_negate(samples):
    """_quantize as first written: sign of the scaled copy, floor(|x| + 0.5),
    then a negate where the sign was set; kept as the reference."""
    scaled = samples * 32767.0
    negative = np.signbit(scaled)
    np.abs(scaled, out=scaled)
    scaled += 0.5
    np.floor(scaled, out=scaled)
    np.negative(scaled, out=scaled, where=negative)
    np.clip(scaled, -32768, 32767, out=scaled)
    return scaled.astype("<i2")


def test_quantize_equals_the_masked_negate_bit_for_bit():
    # Every rounding tie of the int16 range, with the floats either side.
    k = np.arange(-32768, 32768, dtype=np.float64)
    ties = np.concatenate([(k - 0.5) / 32767.0, (k + 0.5) / 32767.0])
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, tiny, 2 * tiny, np.finfo(np.float64).tiny / 2, 1e-300]
    loud = [1.0, 1.0 + 1e-12, 1.5, 2.0, 1e300, np.finfo(np.float64).max]
    samples = np.concatenate(
        [
            ties,
            np.nextafter(ties, -np.inf),
            np.nextafter(ties, np.inf),
            edges,
            np.negative(edges),
            loud,
            np.negative(loud),
        ]
    )
    # The largest overflow to inf when scaled, on both sides alike.
    with np.errstate(over="ignore"):
        assert (
            _quantize(samples).tobytes() == _quantize_by_masked_negate(samples).tobytes()
        )


def test_quantize_rounds_half_away_from_zero_and_clamps():
    halves = (np.arange(-32770, 32770) + 0.5) / 32767.0
    samples = np.concatenate(
        [np.linspace(-1.5, 1.5, 200_001), halves, [0.0, -0.0, 1e-300, -1e-300]]
    )
    scaled = samples * 32767.0
    rounded = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    expected = np.clip(rounded, -32768, 32767).astype("<i2")
    assert np.array_equal(_quantize(samples), expected)
    assert _quantize(np.array([0.5 / 32767.0, -0.5 / 32767.0])).tolist() == [1, -1]
