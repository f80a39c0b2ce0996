"""Feature pipeline: resampling, power spectra, mel filterbank, z-scoring."""

import gc
import hashlib
import logging
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import wave
import zipfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import mclnn
from mclnn import features
from mclnn.errors import (
    ContractError,
    FileFormatError,
    InsufficientAudioError,
    ShapeError,
    TruncatedFileError,
    ValidationError,
)
from mclnn.features import (
    AudioClip,
    FeatureMatrix,
    FeatureParams,
    apply_zscore,
    apply_zscore_in_place,
    extract_chunk,
    extract_features,
    fit_zscore,
    hz_to_mel,
    load_audio,
    load_features,
    log_mel,
    mel_filterbank,
    mel_to_hz,
    read_feature_header,
    resample,
    save_features,
    stft_frame_count,
    stft_power,
)

from conftest import au_bytes, record_task_threads

RATE = 22050


def stft_tasks(frames, workers):
    """Whether each task of a ``frames``-frame ``stft_power`` runs off the calling
    thread, sorted: one task up to one block, else one group of blocks on each
    of two threads."""
    if frames <= features._STFT_BLOCK:
        return [False]
    return [False, workers == 2]


def sine_clip(freq, seconds=2.0, rate=RATE):
    t = np.arange(int(rate * seconds)) / rate
    return AudioClip(samples=np.sin(2 * np.pi * freq * t), sample_rate=rate)


class TestAudioClip:
    def test_rejects_empty_and_bad_rate(self):
        with pytest.raises(ValidationError):
            AudioClip(samples=np.array([]), sample_rate=RATE)
        with pytest.raises(ValidationError):
            AudioClip(samples=np.ones(10), sample_rate=0)
        with pytest.raises(ValidationError):
            AudioClip(samples=np.ones((2, 5)), sample_rate=RATE)


class TestResample:
    def test_length_ratio(self):
        clip = AudioClip(samples=np.random.default_rng(0).standard_normal(88200), sample_rate=44100)
        out = resample(clip, RATE)
        assert out.sample_rate == RATE
        assert abs(out.samples.size - 44100) <= 1

    def test_same_rate_returned_unchanged(self):
        clip = sine_clip(440.0)
        assert resample(clip, RATE) is clip

    def test_tone_survives_resampling(self):
        # a 1 kHz tone at 44.1 kHz must still be a 1 kHz tone at 22.05 kHz
        clip = AudioClip(
            samples=np.sin(2 * np.pi * 1000.0 * np.arange(44100) / 44100), sample_rate=44100
        )
        out = resample(clip, RATE)
        power = stft_power(out, 2048, 1024)
        peak_bin = int(np.argmax(power[4]))
        assert abs(peak_bin - round(1000.0 * 2048 / RATE)) <= 1

    def test_invalid_target(self):
        with pytest.raises(ValidationError):
            resample(sine_clip(440.0), 0)


# (source rate, target rate): the common audio rates brought to 22.05 kHz,
# one upsampling, and uncommon rates whose reduced ratio has a large ``up``
# (11025/22028, 3150/1) or a small ``down`` (441/20)
SCIPY_RATIOS = [
    (44100, RATE), (88200, RATE), (48000, RATE), (96000, RATE), (32000, RATE),
    (16000, RATE), (11025, RATE), (8000, RATE), (RATE, 44100),
    (44056, RATE), (7, RATE), (1000, RATE),
]
# max |resample - resample_poly| / max|x| over SCIPY_RATIOS and every
# length below measured 6.7e-16: the two sum the same products in other
# orders.  The bound leaves room for other BLAS kernels; a filter one tap
# off moves outputs by about max|x|.
SCIPY_TOLERANCE = 1e-13


def _ratio(source, target):
    ratio = Fraction(target, source)
    return ratio.numerator, ratio.denominator


class TestResampleMatchesScipy:
    """``scipy.signal.resample_poly`` is the oracle; the package does not import SciPy."""

    @pytest.mark.parametrize("source, target", SCIPY_RATIOS)
    @pytest.mark.parametrize("length", ["one", "two", "shorter_than_filter", "odd", "thirty_seconds"])
    def test_same_length_and_values(self, source, target, length):
        from scipy.signal import resample_poly

        up, down = _ratio(source, target)
        size = {
            "one": 1,
            "two": 2,
            # half the filter's reach in input samples
            "shorter_than_filter": 10 * max(up, down) // up,
            "odd": 1001,
            "thirty_seconds": 30 * source,
        }[length]
        x = np.random.default_rng(size + source).uniform(-1.0, 1.0, size)
        expected = resample_poly(x, up, down)
        out = resample(AudioClip(samples=x, sample_rate=source), target)
        assert out.sample_rate == target
        assert out.samples.shape == expected.shape
        assert np.abs(out.samples - expected).max() <= SCIPY_TOLERANCE * np.abs(x).max()

    def test_plan_built_once_per_ratio_and_read_only(self):
        features._resample_plan.cache_clear()
        for source, target in [(44100, RATE), (88200, 44100), (11025, RATE), (RATE, 44100)]:
            resample(AudioClip(samples=np.ones(500), sample_rate=source), target)
        # 44.1 -> 22.05 and 88.2 -> 44.1 kHz are both 1/2; 11.025 -> 22.05 and
        # 22.05 -> 44.1 kHz are both 2/1
        assert features._resample_plan.cache_info().misses == 2
        plan = features._resample_plan(1, 2)
        assert features._resample_plan(1, 2) is plan
        with pytest.raises(ValueError):
            plan.band[0, 0] = 1.0

    @pytest.mark.parametrize("source, target", SCIPY_RATIOS)
    def test_group_slices_are_blas_operands(self, source, target):
        # a row advances at least one group's span, so a group's slice of
        # the sample windows has a leading dimension >= its width
        plan = features._resample_plan(*_ratio(source, target))
        assert plan.band.shape[0] <= plan.stride
        assert plan.per_row % _ratio(source, target)[0] == 0


def test_resampled_extraction_runs_without_scipy(tmp_path):
    path = tmp_path / "clip.wav"
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(44100)
        tone = np.sin(2 * np.pi * 1000.0 * np.arange(2 * 44100) / 44100)
        handle.writeframes(np.round(tone * 16000).astype("<i2").tobytes())
    env = dict(os.environ)
    source = str(Path(mclnn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from mclnn import features; "
        f"fm = features.extract_features(features.load_audio({str(path)!r})); "
        "print(fm.frames.shape, fm.meta['sample_rate'])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"({stft_frame_count(2 * RATE, 2048, 1024)}, 256) {RATE}"


class TestChunk:
    def test_center_crop(self):
        clip = AudioClip(samples=np.arange(100, dtype=float), sample_rate=10)
        out = extract_chunk(clip, seconds=4.0)
        assert out.samples.size == 40
        assert out.samples[0] == 30.0  # (100 - 40) // 2
        assert np.shares_memory(out.samples, clip.samples)

    def test_short_clip_used_whole_with_warning(self, caplog):
        clip = AudioClip(samples=np.ones(25), sample_rate=10)
        with caplog.at_level(logging.WARNING, logger="mclnn.features"):
            out = extract_chunk(clip, seconds=4.0)
        assert out is clip
        assert any("shorter" in record.message for record in caplog.records)


class TestStftPower:
    def test_thirty_second_clip_yields_645_frames(self):
        assert stft_frame_count(30 * RATE, 2048, 1024) == 645
        clip = AudioClip(samples=np.zeros(30 * RATE), sample_rate=RATE)
        assert stft_power(clip, 2048, 1024).shape == (645, 1025)

    def test_exact_window_yields_one_frame(self):
        clip = AudioClip(samples=np.ones(2048), sample_rate=RATE)
        assert stft_power(clip, 2048, 1024).shape == (1, 1025)

    def test_too_short_clip_rejected(self):
        clip = AudioClip(samples=np.ones(2047), sample_rate=RATE)
        with pytest.raises(InsufficientAudioError):
            stft_power(clip, 2048, 1024)

    def test_matches_manual_windowed_rfft(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(20)
        clip = AudioClip(samples=samples, sample_rate=RATE)
        power = stft_power(clip, window_size=8, hop=4)
        assert power.shape == (4, 5)
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(8) / 8)
        padded = np.concatenate([samples, np.zeros(0)])
        for i, start in enumerate([0, 4, 8, 12]):
            frame = np.zeros(8)
            chunk = padded[start : start + 8]
            frame[: chunk.size] = chunk
            expected = np.abs(np.fft.rfft(frame * window)) ** 2
            assert_allclose(power[i], expected, rtol=0, atol=1e-12)

    def test_final_frame_is_zero_padded(self):
        samples = np.ones(10)
        clip = AudioClip(samples=samples, sample_rate=RATE)
        power = stft_power(clip, window_size=8, hop=4)
        # second frame covers samples 4..11 where 10..11 are padding
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(8) / 8)
        frame = np.concatenate([samples[4:10], np.zeros(2)])
        assert_allclose(power[1], np.abs(np.fft.rfft(frame * window)) ** 2, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("frames", [
        1, features._STFT_BLOCK - 1, features._STFT_BLOCK, features._STFT_BLOCK + 1, 645,
    ])
    def test_blocked_passes_equal_the_whole_clip_formula(self, monkeypatch, frames, workers):
        off_thread = record_task_threads(monkeypatch, workers)
        window, hop = 2048, 1024
        # a partial last frame, so the zero padding is in play
        size = window if frames == 1 else (frames - 1) * hop + window - 100
        samples = np.random.default_rng(frames).standard_normal(size)
        padded = np.zeros((frames - 1) * hop + window)
        padded[:size] = samples
        whole = np.lib.stride_tricks.sliding_window_view(padded, window)[::hop]
        expected = np.abs(np.fft.rfft(whole * features._hann(window), axis=1)) ** 2
        power = stft_power(AudioClip(samples=samples, sample_rate=RATE), window, hop)
        assert_array_equal(power, expected)
        assert sorted(off_thread) == stft_tasks(frames, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("window, hop, size", [
        (2048, 1024, 2048),                                   # one full frame
        (2048, 1024, 2048 + 1),                               # one full, one partial
        (2048, 1024, 31 * 1024 + 2048),                       # 32 full frames, one pass
        (2048, 1024, 32 * 1024 + 2048),                       # 33 full frames
        (2048, 1024, 31 * 1024 + 2048 + 7),                   # 32 full, partial 33rd
        (2048, 1024, 644 * 1024 + 2048),                      # 645 full frames
        (2048, 1024, 30 * 22050),                             # a 30 s clip, partial last
        (8, 3, 20), (8, 3, 21), (8, 8, 24), (8, 8, 27), (8, 10, 25), (8, 10, 29),
    ])
    def test_tail_only_padding_equals_the_whole_padded_formula(
        self, monkeypatch, window, hop, size, workers
    ):
        off_thread = record_task_threads(monkeypatch, workers)
        samples = np.random.default_rng(size).standard_normal(size)
        t = stft_frame_count(size, window, hop)
        padded = np.zeros((t - 1) * hop + window)
        padded[:size] = samples
        whole = np.lib.stride_tricks.sliding_window_view(padded, window)[::hop]
        expected = np.abs(np.fft.rfft(whole * features._hann(window), axis=1)) ** 2
        power = stft_power(AudioClip(samples=samples, sample_rate=RATE), window, hop)
        assert_array_equal(power, expected)
        assert sorted(off_thread) == stft_tasks(t, workers)

    def test_callers_on_several_threads_get_their_own_spectra(self, monkeypatch):
        # four callers share the one second thread; a group that ran twice,
        # or wrote into another caller's array, changes some caller's bytes
        monkeypatch.setattr(mclnn.layers, "_WORKERS", 2)
        rng = np.random.default_rng(73)
        clips = [AudioClip(samples=rng.standard_normal(80 * 256 + 7 * i), sample_rate=RATE)
                 for i in range(4)]
        serial = [stft_power(clip, 512, 256).tobytes() for clip in clips]
        results = [[] for _ in clips]

        def caller(i):
            for _ in range(20):
                results[i].append(stft_power(clips[i], 512, 256).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(clips))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, runs in enumerate(results):
            assert len(runs) == 20 and all(run == serial[i] for run in runs), i

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_extracts_after_its_parent_used_the_second_thread(self):
        # the parent's executor has no thread in the child; reusing it would hang
        code = (
            "import os, numpy as np; from mclnn import features, layers; layers._WORKERS = 2; "
            "clip = features.AudioClip(samples=np.ones(40 * 1024 + 2048), sample_rate=22050); "
            "features.stft_power(clip); pid = os.fork(); "
            "os._exit(0 if features.extract_features(clip).frames.shape == (41, 256) else 3) "
            "if pid == 0 else print(os.waitpid(pid, 0)[1])"
        )
        env = dict(os.environ)
        source = str(Path(mclnn.features.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "0"

    def test_sine_at_bin_center_has_single_dominant_bin(self):
        k = 200
        clip = sine_clip(k * RATE / 2048)
        frame = stft_power(clip, 2048, 1024)[5]
        assert int(np.argmax(frame)) == k
        # outside the 3-bin main lobe everything is at least 40 dB down
        others = np.delete(frame, [k - 1, k, k + 1])
        assert 10 * np.log10(frame[k] / others.max()) >= 40.0


class TestMelFilterbank:
    def test_shape(self):
        assert mel_filterbank(256, 2048, RATE).shape == (1025, 256)

    def test_every_filter_is_nonempty_and_nonnegative(self):
        fb = mel_filterbank(256, 2048, RATE)
        assert np.all(fb >= 0)
        assert np.all(fb.sum(axis=0) > 0)

    def test_centers_equally_spaced_on_mel_scale(self):
        points = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(RATE / 2.0), 258))
        mels = hz_to_mel(points)
        assert_allclose(np.diff(mels), mels[1] - mels[0], rtol=1e-9)
        # frozen spot value for the mid-range filter center
        assert_allclose(points[129], 2180.6254776021397, rtol=0, atol=1e-9)

    def test_filter_support_is_contiguous(self):
        fb = mel_filterbank(64, 1024, RATE)
        for b in range(64):
            active = np.flatnonzero(fb[:, b] > 0)
            assert active.size > 0
            assert_array_equal(np.diff(active), np.ones(active.size - 1, dtype=np.int64))

    def test_built_once_per_key_and_read_only(self):
        fb = mel_filterbank(16, 64, RATE)
        assert mel_filterbank(16, 64, RATE) is fb
        assert mel_filterbank(16, 128, RATE) is not fb
        with pytest.raises(ValueError):
            fb[0, 0] = 1.0

    def test_every_caller_gets_one_bank_per_setting(self, monkeypatch):
        used = []
        original = features.log_mel
        monkeypatch.setattr(
            features, "log_mel", lambda power, fb, **kw: used.append(fb) or original(power, fb, **kw)
        )
        params = FeatureParams()
        extract_features(sine_clip(1000.0, seconds=1.0), params)
        bank = mel_filterbank(params.mel_bins, params.fft_size, params.sample_rate)
        assert len(used) == 1 and used[0] is bank
        # the setting is always spelled out in full, in order
        with pytest.raises(TypeError):
            mel_filterbank()
        with pytest.raises(TypeError):
            mel_filterbank(bins=256, fft_size=2048, rate=RATE)

    def test_empty_filters_warn_once_per_key(self, caplog):
        features.mel_filterbank.cache_clear()
        with caplog.at_level(logging.WARNING, logger="mclnn.features"):
            fb = mel_filterbank(256, 1024, RATE)
            assert mel_filterbank(256, 1024, RATE) is fb
        assert np.count_nonzero(fb.sum(axis=0) == 0) == 5
        messages = [r.getMessage() for r in caplog.records if r.name == "mclnn.features"]
        assert len(messages) == 1
        assert "5 of 256 mel filters are empty" in messages[0]
        assert "--fft" in messages[0] and "--mel-bins" in messages[0]

    def test_bank_without_empty_filters_is_silent(self, caplog):
        features.mel_filterbank.cache_clear()
        with caplog.at_level(logging.WARNING, logger="mclnn.features"):
            fb = mel_filterbank(256, 2048, RATE)
        assert np.all(fb.sum(axis=0) > 0)
        assert [r for r in caplog.records if r.name == "mclnn.features"] == []

    def test_mel_scale_round_trip(self):
        freqs = np.array([0.0, 700.0, 1000.0, 8000.0, RATE / 2.0])
        assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, rtol=1e-12, atol=1e-9)


class TestLogMel:
    def test_silence_hits_the_log_floor(self):
        fb = mel_filterbank(16, 64, RATE)
        fm = log_mel(np.zeros((3, 33)), fb)
        assert_allclose(fm.frames, math.log(1e-10), rtol=0, atol=1e-12)

    def test_shape_and_finiteness(self):
        rng = np.random.default_rng(2)
        fb = mel_filterbank(16, 64, RATE)
        fm = log_mel(rng.random((5, 33)), fb, clip_id="c", label=1, split="train")
        assert fm.frames.shape == (5, 16)
        assert np.all(np.isfinite(fm.frames))
        assert fm.clip_id == "c" and fm.label == 1 and fm.split == "train"
        assert fm.meta["log_eps"] == 1e-10

    @pytest.mark.parametrize("bins, fft_size", [(256, 2048), (64, 1024), (16, 64), (256, 64)])
    def test_banded_product_equals_dense_product(self, bins, fft_size):
        fb = mel_filterbank(bins, fft_size, RATE)
        if (bins, fft_size) == (256, 64):
            assert np.any(fb.sum(axis=0) == 0)  # filters narrower than a bin are empty
        power = np.random.default_rng(bins + fft_size).random((37, fft_size // 2 + 1))
        assert_allclose(features._mel_energies(power, fb), power @ fb, rtol=1e-12, atol=0)

    def test_banded_product_handles_any_zero_pattern(self):
        rng = np.random.default_rng(12)
        matrix = rng.standard_normal((33, 20)) * (rng.random((33, 20)) < 0.2)
        matrix[:, 3] = 0.0
        power = rng.random((9, 33))
        assert_allclose(features._mel_energies(power, matrix), power @ matrix, rtol=1e-12, atol=0)

    def test_cached_bank_and_writeable_copy_give_identical_frames(self):
        fb = mel_filterbank(256, 2048, RATE)
        copy = fb.copy()
        assert copy.flags.writeable and copy is not fb
        power = np.random.default_rng(5).random((41, 1025))
        assert log_mel(power, copy).frames.tobytes() == log_mel(power, fb).frames.tobytes()

    def test_band_groups_are_found_once_per_bank(self, monkeypatch):
        scans = []

        def counted(filterbank):
            scans.append(filterbank)
            return mel_groups(filterbank)

        mel_groups = features._mel_groups
        monkeypatch.setattr(features, "_mel_groups", counted)
        features.mel_filterbank.cache_clear()
        clip = sine_clip(1000.0, seconds=1.0)
        frames = {extract_features(clip).frames.tobytes() for _ in range(10)}
        assert len(frames) == 1
        assert len(scans) == 1 and scans[0] is mel_filterbank(256, 2048, RATE)
        log_mel(np.ones((2, 1025)), scans[0].copy())
        assert len(scans) == 2  # any other matrix is scanned on each call

    def test_a_bank_the_cache_reuses_keeps_its_groups(self, monkeypatch):
        features.mel_filterbank.cache_clear()
        first = mel_filterbank(16, 64, RATE)
        size = features.mel_filterbank.cache_info().maxsize
        for fft_size in range(66, 66 + 2 * (size - 1), 2):
            mel_filterbank(16, fft_size, RATE)
        assert mel_filterbank(16, 64, RATE) is first  # reused: now the most recent
        mel_filterbank(16, 500, RATE)  # evicts the least recently used, not ``first``
        scans = []
        monkeypatch.setattr(features, "_mel_groups", lambda fb: scans.append(fb) or [])
        assert mel_filterbank(16, 64, RATE) is first
        log_mel(np.ones((2, 33)), first)
        assert scans == []

    def test_a_freed_bank_takes_its_groups_with_it(self):
        features.mel_filterbank.cache_clear()
        fb = mel_filterbank(16, 64, RATE)
        key = id(fb)
        assert key in features._BANK_GROUPS
        features.mel_filterbank.cache_clear()
        del fb
        gc.collect()
        assert key not in features._BANK_GROUPS

    def test_a_bank_the_cache_evicted_gives_the_bytes_of_the_rebuilt_one(self):
        features.mel_filterbank.cache_clear()
        first = mel_filterbank(16, 64, RATE)
        size = features.mel_filterbank.cache_info().maxsize
        for fft_size in range(66, 66 + 2 * size, 2):
            mel_filterbank(16, fft_size, RATE)
        rebuilt = mel_filterbank(16, 64, RATE)
        assert rebuilt is not first
        assert rebuilt.tobytes() == first.tobytes()
        power = np.random.default_rng(6).random((7, 33))
        assert (features._mel_energies(power, first).tobytes()
                == features._mel_energies(power, rebuilt).tobytes())

    def test_power_width_mismatch(self):
        fb = mel_filterbank(16, 64, RATE)
        with pytest.raises(ShapeError):
            log_mel(np.zeros((3, 32)), fb)


class TestExtractFeatures:
    def test_full_pipeline_shape(self):
        clip = sine_clip(1000.0, seconds=3.0)
        fm = extract_features(clip, FeatureParams(), clip_id="sine")
        assert fm.feature_length == 256
        assert fm.frame_count == stft_frame_count(3 * RATE, 2048, 1024)
        assert fm.meta["window"] == "hann"
        assert fm.meta["sample_rate"] == RATE


class TestFeatureParams:
    @pytest.mark.parametrize("overrides", [
        dict(sample_rate=0), dict(fft_size=1), dict(hop=0), dict(mel_bins=0),
        dict(chunk_seconds=0.0), dict(chunk_seconds=-1.0),
        dict(chunk_seconds=float("nan")), dict(chunk_seconds=float("inf")),
    ])
    def test_out_of_bounds_value_is_rejected(self, overrides):
        with pytest.raises(ValidationError, match=next(iter(overrides))):
            FeatureParams(**overrides)

    def test_smallest_valid_values(self):
        FeatureParams(sample_rate=1, fft_size=2, hop=1, mel_bins=1, chunk_seconds=1e-9)


class TestZScore:
    def _train_matrices(self, rng, count=4, width=6):
        return [
            FeatureMatrix(
                frames=rng.standard_normal((int(rng.integers(5, 20)), width)) * 3.0 + 1.0,
                clip_id=f"c{i}",
                label=0,
                split="train",
            )
            for i in range(count)
        ]

    def test_self_normalization_is_tight(self):
        rng = np.random.default_rng(3)
        mats = self._train_matrices(rng)
        stats = fit_zscore(mats)
        stacked = np.concatenate([apply_zscore(m, stats).frames for m in mats])
        assert np.all(np.abs(stacked.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(stacked.std(axis=0) - 1.0) < 1e-9)

    def test_constant_dimension_floored_to_unit_scale(self):
        frames = np.ones((10, 3))
        frames[:, 1] = 7.0
        stats = fit_zscore([FeatureMatrix(frames=frames, clip_id="c", split="train")])
        assert_array_equal(stats.std, np.ones(3))
        out = apply_zscore(FeatureMatrix(frames=frames, clip_id="c"), stats)
        assert_array_equal(out.frames, np.zeros((10, 3)))

    def test_held_out_splits_rejected(self):
        frames = np.ones((4, 2))
        for split in ("validation", "test"):
            with pytest.raises(ValidationError, match="training"):
                fit_zscore([FeatureMatrix(frames=frames, clip_id="c", split=split)])

    def test_round_trip_inversion(self):
        rng = np.random.default_rng(4)
        mats = self._train_matrices(rng, count=2)
        stats = fit_zscore(mats)
        normalized = apply_zscore(mats[0], stats)
        restored = normalized.frames * stats.std + stats.mean
        assert_allclose(restored, mats[0].frames, rtol=0, atol=1e-9)

    def test_apply_marks_provenance(self):
        rng = np.random.default_rng(5)
        mats = self._train_matrices(rng, count=1)
        stats = fit_zscore(mats)
        out = apply_zscore(mats[0], stats)
        assert out.normalized and out.norm_id == stats.stats_id
        assert not mats[0].normalized  # input untouched

    def test_dimension_mismatch_and_unfitted(self):
        rng = np.random.default_rng(6)
        stats = fit_zscore(self._train_matrices(rng, count=1, width=6))
        with pytest.raises(ShapeError):
            apply_zscore(FeatureMatrix(frames=np.ones((3, 5)), clip_id="x"), stats)
        with pytest.raises(ContractError):
            apply_zscore(FeatureMatrix(frames=np.ones((3, 6)), clip_id="x"), None)

    def test_width_disagreement_rejected(self):
        with pytest.raises(ShapeError):
            fit_zscore([
                FeatureMatrix(frames=np.ones((3, 4)), clip_id="a", split="train"),
                FeatureMatrix(frames=np.ones((3, 5)), clip_id="b", split="train"),
            ])

    def test_stats_id_tracks_content(self):
        rng = np.random.default_rng(7)
        a = fit_zscore(self._train_matrices(rng, count=2))
        b = fit_zscore(self._train_matrices(rng, count=2))
        assert a.stats_id != b.stats_id
        repeat = fit_zscore(self._train_matrices(np.random.default_rng(7), count=2))
        assert repeat.stats_id == a.stats_id

    # (clips, fewest rows, most rows, width, offset): ragged sets where the
    # order of summation shows in the last bits
    @pytest.mark.parametrize("count, low, high, width, offset", [
        (12, 1, 1, 5, 0.0),       # every clip one row
        (9, 1, 30, 1, 3.0),       # width 1
        (1, 50, 50, 7, 0.0),      # a single clip
        (60, 1, 40, 16, 0.0),     # many ragged clips
        (40, 1, 25, 9, 1e6),      # large offsets
        (30, 2, 20, 3, -1e6),
        (25, 1, 200, 1, 1e6),     # width 1, large offset
    ])
    def test_streamed_fit_equals_stacked_statistics_bytewise(self, count, low, high, width, offset):
        rng = np.random.default_rng(count * 31 + width)
        clips = [
            offset + rng.standard_normal((int(rng.integers(low, high + 1)), width))
            * rng.uniform(0.1, 10.0)
            for _ in range(count)
        ]
        stats = fit_zscore([FeatureMatrix(frames=c, clip_id=f"c{i}") for i, c in enumerate(clips)])
        stacked = np.concatenate(clips, axis=0)
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        std = np.where(std < features.STD_FLOOR, 1.0, std)
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.std.tobytes() == std.tobytes()
        assert stats.stats_id == hashlib.sha256(mean.tobytes() + std.tobytes()).hexdigest()[:12]

    def test_fit_holds_under_three_clips_beside_the_frames(self):
        rng = np.random.default_rng(11)
        mats = [FeatureMatrix(frames=rng.standard_normal((300, 64)), clip_id=f"c{i}")
                for i in range(40)]
        clip_bytes = mats[0].frames.nbytes
        tracemalloc.start()
        try:
            fit_zscore(mats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * clip_bytes, (peak, clip_bytes)

    def test_in_place_gives_apply_zscore_bytes(self):
        rng = np.random.default_rng(12)
        mats = self._train_matrices(rng, count=3)
        stats = fit_zscore(mats)
        for m in mats:
            raw = m.frames.copy()
            pure = apply_zscore(m, stats)
            assert m.frames.tobytes() == raw.tobytes()  # apply_zscore leaves its input as it was
            out = apply_zscore_in_place(m, stats)
            assert out.frames is m.frames
            assert out.frames.tobytes() == pure.frames.tobytes()
            assert out.normalized and out.norm_id == stats.stats_id
        with pytest.raises(ShapeError):
            apply_zscore_in_place(FeatureMatrix(frames=np.ones((3, 5)), clip_id="x"), stats)
        with pytest.raises(ContractError):
            apply_zscore_in_place(FeatureMatrix(frames=np.ones((3, 6)), clip_id="x"), None)

    def test_in_place_marks_the_matrix_it_was_given(self):
        stats = fit_zscore(self._train_matrices(np.random.default_rng(13), count=2))
        m = FeatureMatrix(frames=np.random.default_rng(14).standard_normal((5, 6)), clip_id="x")
        out = apply_zscore_in_place(m, stats)
        assert out is m
        assert m.normalized and m.norm_id == stats.stats_id

    def test_fit_rejects_normalized_frames(self):
        mats = self._train_matrices(np.random.default_rng(15), count=2)
        stats = fit_zscore(mats)
        normalized = apply_zscore(mats[1], stats)
        with pytest.raises(ValidationError, match=rf"clip 'c1', .*{stats.stats_id}.*raw frames"):
            fit_zscore([mats[0], normalized])

    @pytest.mark.parametrize("apply", [apply_zscore, apply_zscore_in_place])
    def test_second_application_under_the_same_statistics_changes_nothing(self, apply):
        mats = self._train_matrices(np.random.default_rng(16), count=2)
        stats = fit_zscore(mats)
        once = apply(mats[0], stats)
        expected = once.frames.tobytes()
        twice = apply(once, stats)
        assert twice.frames.tobytes() == expected
        assert twice.normalized and twice.norm_id == stats.stats_id

    @pytest.mark.parametrize("apply", [apply_zscore, apply_zscore_in_place])
    def test_normalized_under_other_statistics_is_rejected(self, apply):
        rng = np.random.default_rng(17)
        first = fit_zscore(self._train_matrices(rng, count=2))
        second = fit_zscore(self._train_matrices(rng, count=2))
        m = apply_zscore(self._train_matrices(rng, count=1)[0], first)
        before = m.frames.tobytes()
        with pytest.raises(
            ValidationError, match=rf"'c0' .* statistics '{first.stats_id}', not '{second.stats_id}'"
        ):
            apply(m, second)
        assert m.frames.tobytes() == before and m.norm_id == first.stats_id


class TestFeatureIO:
    def _matrix(self):
        rng = np.random.default_rng(8)
        return FeatureMatrix(
            frames=rng.standard_normal((7, 5)),
            clip_id="clip-1",
            label=3,
            split="train",
            meta={"window": "hann", "log_eps": 1e-10},
        )

    def test_round_trip(self, tmp_path):
        fm = self._matrix()
        path = tmp_path / "clip.mclf"
        save_features(fm, path)
        loaded = load_features(path)
        assert loaded.frames.tobytes() == fm.frames.tobytes()
        assert loaded.clip_id == "clip-1"
        assert loaded.label == 3
        assert loaded.split == "train"
        assert loaded.meta == fm.meta

    def test_truncated(self, tmp_path):
        path = tmp_path / "clip.mclf"
        save_features(self._matrix(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])
        with pytest.raises(TruncatedFileError):
            load_features(path)

    def test_header_read_types_fields_without_the_frames(self, tmp_path):
        path = tmp_path / "clip.mclf"
        fm = self._matrix()
        save_features(fm, path)
        header = read_feature_header(path)
        assert header == {"t": 7, "l": 5, "clip_id": "clip-1", "label": 3, "split": "train",
                          "normalized": False, "norm_id": None, "meta": fm.meta}
        # frames are not read: a non-finite payload passes the header read only
        blob = bytearray(path.read_bytes())
        blob[-8:] = np.array([np.nan]).tobytes()
        path.write_bytes(bytes(blob))
        assert read_feature_header(path)["clip_id"] == "clip-1"
        with pytest.raises(ValidationError, match="non-finite"):
            load_features(path)
        path.write_bytes(bytes(blob[:-1]))
        with pytest.raises(TruncatedFileError):
            read_feature_header(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "clip.mclf"
        save_features(self._matrix(), path)
        blob = bytearray(path.read_bytes())
        blob[0] = 0
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError):
            load_features(path)


class TestLoadAudio:
    def test_npz(self, tmp_path):
        path = tmp_path / "clip.npz"
        samples = np.random.default_rng(9).standard_normal(1000)
        np.savez(path, samples=samples, rate=8000)
        clip = load_audio(path)
        assert clip.sample_rate == 8000
        assert_allclose(clip.samples, samples, rtol=0, atol=0)

    def test_wav_int16(self, tmp_path):
        path = tmp_path / "clip.wav"
        values = (np.sin(2 * np.pi * 440 * np.arange(2000) / 8000) * 20000).astype(np.int16)
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(2)
            handle.setframerate(8000)
            handle.writeframes(values.tobytes())
        clip = load_audio(path)
        assert clip.sample_rate == 8000
        assert_allclose(clip.samples, values / 32768.0, rtol=0, atol=0)

    @pytest.mark.parametrize("width, channels", [(1, 1), (2, 1), (4, 1), (2, 2)])
    def test_wav_decode_equals_convert_then_divide(self, tmp_path, width, channels):
        dtype = {1: np.uint8, 2: np.int16, 4: np.int32}[width]
        info = np.iinfo(dtype)
        rng = np.random.default_rng(width * 10 + channels)
        values = rng.integers(info.min, info.max, size=999 * channels, endpoint=True, dtype=dtype)
        values[:2] = info.min, info.max
        path = tmp_path / "clip.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(channels)
            handle.setsampwidth(width)
            handle.setframerate(8000)
            handle.writeframes(values.tobytes())
        expected = values.astype(np.float64)
        if width == 1:
            expected = (expected - 128.0) / 128.0
        else:
            expected = expected / float(2 ** (8 * width - 1))
        expected = expected.reshape(-1, channels).mean(axis=1)
        assert_array_equal(load_audio(path).samples, expected)

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "clip.mp3"
        path.write_bytes(b"not audio")
        with pytest.raises(ValidationError):
            load_audio(path)

    @pytest.mark.parametrize("rate", [8000, 8000.0, np.uint16(8000)])
    def test_npz_rate_with_an_integer_value(self, tmp_path, rate):
        path = tmp_path / "clip.npz"
        np.savez(path, samples=np.ones(100), rate=rate)
        clip = load_audio(path)
        assert clip.sample_rate == 8000 and type(clip.sample_rate) is int

    @pytest.mark.parametrize("rate", [np.array([8000]), 8000.5, 0, -8000, np.inf, np.nan, True,
                                      "8000"])
    def test_npz_rate_not_one_positive_integer(self, tmp_path, rate):
        path = tmp_path / "clip.npz"
        np.savez(path, samples=np.ones(100), rate=rate)
        with pytest.raises(ValidationError, match="'rate' must be one positive integer"):
            load_audio(path)

    @pytest.mark.parametrize("samples", [np.array(["0.5", "1"]), np.array([1 + 2j]),
                                         np.array([True, False])])
    def test_npz_samples_not_real_numbers(self, tmp_path, samples):
        path = tmp_path / "clip.npz"
        np.savez(path, samples=samples, rate=8000)
        with pytest.raises(ValidationError, match="'samples' must be real numbers"):
            load_audio(path)

    def test_npz_without_rate(self, tmp_path):
        path = tmp_path / "clip.npz"
        np.savez(path, samples=np.ones(100))
        with pytest.raises(ValidationError, match="must contain 'samples' and 'rate'"):
            load_audio(path)

    @pytest.mark.parametrize("content", [
        b"", b"not a zip archive", b"\x93NUMPY single array",
    ], ids=["empty", "text", "npy-magic"])
    def test_npz_that_is_no_archive(self, tmp_path, content):
        path = tmp_path / "clip.npz"
        path.write_bytes(content)
        with pytest.raises(FileFormatError, match="is not a readable .npz archive"):
            load_audio(path)

    def test_npz_members_that_are_not_arrays(self, tmp_path):
        path = tmp_path / "clip.npz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("samples", b"\x00\x01")
            archive.writestr("rate", b"8000")
        with pytest.raises(FileFormatError, match="must be .npy members"):
            load_audio(path)

    def test_npz_with_object_array(self, tmp_path):
        path = tmp_path / "clip.npz"
        np.savez(path, samples=np.array([1.0, "a"], dtype=object), rate=8000)
        with pytest.raises(FileFormatError, match="allow_pickle"):
            load_audio(path)

    @pytest.mark.parametrize("content", [b"", b"RIFF", b"RIFF\x08\x00\x00\x00WAVEjunk"])
    def test_wav_that_is_no_wave(self, tmp_path, content):
        path = tmp_path / "clip.wav"
        path.write_bytes(content)
        with pytest.raises(FileFormatError, match="is not a readable .wav file"):
            load_audio(path)

    @pytest.mark.parametrize("cut", [1, 3])
    def test_wav_ending_inside_a_frame(self, tmp_path, cut):
        path = tmp_path / "clip.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(2)
            handle.setsampwidth(2)
            handle.setframerate(8000)
            handle.writeframes(np.zeros(200, dtype=np.int16).tobytes())
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(TruncatedFileError, match="ends inside a frame"):
            load_audio(path)



class TestLoadAu:
    """Sun/NeXT ``.au``: big-endian linear PCM, decoded as ``.wav`` is."""

    @pytest.mark.parametrize("encoding, dtype, channels", [
        (2, ">i1", 1), (3, ">i2", 1), (3, ">i2", 2), (5, ">i4", 1), (5, ">i4", 3),
    ])
    def test_decode_equals_convert_then_divide(self, tmp_path, encoding, dtype, channels):
        info = np.iinfo(np.dtype(dtype))
        values = np.random.default_rng(encoding * 10 + channels).integers(
            info.min, info.max, size=999 * channels, endpoint=True
        ).astype(dtype)
        values[:2] = info.min, info.max
        path = tmp_path / "clip.au"
        path.write_bytes(au_bytes(values.tobytes(), encoding, rate=22050, channels=channels))
        clip = load_audio(path)
        expected = values.astype(np.float64) / float(2 ** (8 * values.itemsize - 1))
        assert clip.sample_rate == 22050
        assert_array_equal(clip.samples, expected.reshape(-1, channels).mean(axis=1))

    def test_same_samples_as_the_wav_of_the_same_pcm(self, tmp_path):
        values = np.random.default_rng(31).integers(-32768, 32767, size=2 * 500).astype(np.int16)
        with wave.open(str(tmp_path / "clip.wav"), "wb") as handle:
            handle.setnchannels(2)
            handle.setsampwidth(2)
            handle.setframerate(8000)
            handle.writeframes(values.astype("<i2").tobytes())
        (tmp_path / "clip.au").write_bytes(
            au_bytes(values.astype(">i2").tobytes(), rate=8000, channels=2)
        )
        wav, au = load_audio(tmp_path / "clip.wav"), load_audio(tmp_path / "clip.au")
        assert au.sample_rate == wav.sample_rate
        assert au.samples.tobytes() == wav.samples.tobytes()

    @pytest.mark.parametrize("size", [None, 0xFFFFFFFF])
    def test_data_starts_at_the_declared_offset(self, tmp_path, size):
        values = np.arange(-50, 50, dtype=">i2")
        path = tmp_path / "clip.au"
        path.write_bytes(au_bytes(values.tobytes(), offset=40, size=size))
        assert_array_equal(load_audio(path).samples, values / 32768.0)

    def test_declared_size_shorter_than_the_file_is_the_data(self, tmp_path):
        values = np.arange(100, dtype=">i2")
        path = tmp_path / "clip.au"
        path.write_bytes(au_bytes(values.tobytes(), size=120) + b"trailer")
        assert_array_equal(load_audio(path).samples, values[:60] / 32768.0)

    def test_sunau_oracle(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            sunau = pytest.importorskip("sunau")
        values = np.random.default_rng(32).integers(-32768, 32767, size=2 * 700).astype(">i2")
        path = tmp_path / "clip.au"
        with sunau.open(str(path), "wb") as handle:
            handle.setnchannels(2)
            handle.setsampwidth(2)
            handle.setframerate(22050)
            handle.setcomptype("NONE", "not compressed")  # sunau writes mu-law by default
            handle.writeframes(values.tobytes())
        with sunau.open(str(path), "rb") as handle:
            rate, frames = handle.getframerate(), handle.readframes(handle.getnframes())
        clip = load_audio(path)
        expected = np.frombuffer(frames, dtype=">i2") / 32768.0
        assert clip.sample_rate == rate == 22050
        assert_array_equal(clip.samples, expected.reshape(-1, 2).mean(axis=1))

    @pytest.mark.parametrize("encoding", [1, 4, 6, 7, 27])
    def test_other_encodings_are_unsupported(self, tmp_path, encoding):
        path = tmp_path / "clip.au"
        path.write_bytes(au_bytes(bytes(96), encoding))
        with pytest.raises(ValidationError, match=f"unsupported .au encoding {encoding}"):
            load_audio(path)

    def test_short_data_block_is_truncated(self, tmp_path):
        path = tmp_path / "clip.au"
        path.write_bytes(au_bytes(bytes(200), size=400))
        with pytest.raises(TruncatedFileError, match="declares 400 data bytes"):
            load_audio(path)

    @pytest.mark.parametrize("encoding, channels, size", [(3, 1, 201), (5, 1, 202), (3, 2, 202)])
    def test_data_ending_inside_a_frame(self, tmp_path, encoding, channels, size):
        path = tmp_path / "clip.au"
        path.write_bytes(au_bytes(bytes(size), encoding, channels=channels))
        with pytest.raises(TruncatedFileError, match="ends inside a frame"):
            load_audio(path)

    @pytest.mark.parametrize("content", [
        b"", b".snd", b"RIFF" + bytes(40),
        au_bytes(bytes(8))[:4] + (16).to_bytes(4, "big") + au_bytes(bytes(8))[8:],
        au_bytes(bytes(8), channels=0), au_bytes(bytes(8), rate=0),
    ], ids=["empty", "magic-only", "wav-magic", "offset-inside-header", "no-channels", "no-rate"])
    def test_that_is_no_au(self, tmp_path, content):
        path = tmp_path / "clip.au"
        path.write_bytes(content)
        with pytest.raises(FileFormatError, match="is not a readable .au file"):
            load_audio(path)

def test_import_leaves_scipy_unloaded():
    # scipy.signal dominates import time; only resampling needs it
    env = dict(os.environ)
    source = str(Path(mclnn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    code = (
        "import mclnn, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
