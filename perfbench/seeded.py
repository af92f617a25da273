"""Seeded MiniC kernels the benchmark adds to the suite workloads.

Each function here returns a :class:`~repro.workloads.base.Workload` whose
input data comes from :mod:`repro.workloads.inputs` under the
benchmark's ``--seed``; the seed reaches nothing else.  Both kernels run
a few tens of thousands of dynamic instructions and carry a Python
reference for their printed output, following
``examples/custom_workload.py``.

* :func:`narrow_kernel` — a 7-tap fixed-point FIR filter over smooth
  16-bit audio: narrow, highly repetitive operand values.
* :func:`wide_kernel` — an xor/shift mix over uniform 32-bit words:
  full-width, almost never repeating operand values.
"""

from repro.workloads.base import Workload, format_int_array, to_s32
from repro.workloads.inputs import audio_samples, uniform_words

#: The seed whose experiment texts are pinned by ``golden.json``.
DEFAULT_SEED = 1
#: A seed never used while writing the benchmark: runs every check but
#: the golden digests, and prints its digests so commits can be diffed.
HELD_OUT_SEED = 20001

FIR_TAPS = (3, -5, 12, 24, 12, -5, 3)
FIR_SAMPLES = 100
MIX_WORDS = 480


def _fir_source(samples):
    return """
%s
%s
int output[%d];

int main() {
    int n = %d;
    int taps = %d;
    int checksum = 0;
    for (int i = taps - 1; i < n; i += 1) {
        int acc = 0;
        for (int k = 0; k < taps; k += 1) {
            acc += coeff[k] * input[i - k];
        }
        acc >>= 6;
        output[i] = acc;
        checksum = (checksum * 31 + (acc & 0xFFFF)) & 0xFFFFFF;
    }
    print_int(checksum);
    return 0;
}
""" % (
        format_int_array("input", samples),
        format_int_array("coeff", FIR_TAPS),
        len(samples),
        len(samples),
        len(FIR_TAPS),
    )


def _fir_reference(samples):
    taps = len(FIR_TAPS)
    checksum = 0
    for i in range(taps - 1, len(samples)):
        acc = 0
        for k in range(taps):
            acc += FIR_TAPS[k] * samples[i - k]
        acc >>= 6
        checksum = (checksum * 31 + (acc & 0xFFFF)) & 0xFFFFFF
    return "%d" % checksum


def _mix_source(words):
    return """
%s
int output[%d];

int main() {
    int n = %d;
    int h = 0;
    for (int i = 0; i < n; i += 1) {
        int x = input[i];
        x = x ^ (x << 13);
        x = x ^ ((x >> 17) & 0x7FFF);
        x = x ^ (x << 5);
        output[i] = x;
        h = (h ^ x) + (h << 3);
    }
    print_int(h);
    return 0;
}
""" % (format_int_array("input", words), len(words), len(words))


def _mix_reference(words):
    h = 0
    for x in words:
        x = to_s32(x ^ (x << 13))
        x = to_s32(x ^ ((x >> 17) & 0x7FFF))
        x = to_s32(x ^ (x << 5))
        h = to_s32((h ^ x) + (h << 3))
    return "%d" % h


def _scaled(count, scale):
    if scale != 1:
        raise ValueError("seeded kernels exist at scale 1 only")
    return count


def narrow_kernel(seed):
    """FIR filter over ``audio_samples(FIR_SAMPLES, seed)``."""

    def samples(scale):
        return audio_samples(_scaled(FIR_SAMPLES, scale), seed=seed)

    return Workload(
        "narrow_fir",
        lambda scale: _fir_source(samples(scale)),
        lambda scale: _fir_reference(samples(scale)),
        "7-tap FIR filter over seeded PCM audio (narrow, repetitive values)",
        category="bench",
    )


def wide_kernel(seed):
    """xor/shift mix over ``uniform_words(MIX_WORDS, seed)``."""

    def words(scale):
        return [
            to_s32(word)
            for word in uniform_words(_scaled(MIX_WORDS, scale), seed=seed)
        ]

    return Workload(
        "wide_xorshift",
        lambda scale: _mix_source(words(scale)),
        lambda scale: _mix_reference(words(scale)),
        "xor/shift mix over seeded uniform words (wide, diverse values)",
        category="bench",
    )
