"""Seeded input generator for the cnvfuse benchmark.

Independent of ``cnvfuse.simulate`` on purpose, so that a change to the
package's simulator cannot change what the benchmark measures. The model
is the usual parametric one for SNP arrays: per SNP a B-allele count is
drawn from Binomial(copy, MAF), LogR is Gaussian around the per-copy mean
and BAF is Gaussian around count/copy (uniform for copy 0), clipped to
[0, 1].

Only the planted CNV positions, genotypes, noise and SNP spacing depend
on the seed. Arm lengths, CNV counts, sizes and types are fixed, so every
seed asks for the same amount of work.

Regenerate every input of one seed with::

    python3 perfbench/gen.py --seed 1 --out perfbench/out/inputs-1
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np

#: per-copy LogR means (copy 0..3) of Illumina-style arrays
MU = (-5.5923, -0.6313, -0.0045, 0.3252)
SIGMA_LOGR = 0.2
SIGMA_BAF = 0.03
MAF = 0.3

# genome: five chromosomes cut into p/q arms at a centromere gap, plus one
# unsplit CNV-dense "tumour" chromosome. The tumour carries no copy-0
# runs: with more than 2.5% of its SNPs near -5.6 the trimmed sd, and so
# lambda2, would be inflated several-fold.
ARM_LENGTHS = ((5000, 9000), (6000, 11000), (7000, 13000), (8000, 15000), (10000, 12000))
ARM_CNV_SIZES = (5, 10, 20, 30, 50, 100, 200)
ARM_CNV_TYPES = (1, 3, 0)
SNPS_PER_ARM_CNV = 2500
TUMOUR_LENGTH = 16000
TUMOUR_CNVS = 120
TUMOUR_CNV_SIZES = (10, 20, 30, 40, 60, 80, 100)
TUMOUR_CNV_TYPES = (1, 3)
TUMOUR_CNV_GAP = 30

# arm corpus: arm length -> number of arms; short arms are many, so the
# fixed cost per call weighs as much as the per-SNP cost
CORPUS_ARMS = {1000: 48, 1200: 40, 1500: 24, 2000: 18, 3000: 12, 4000: 6, 6000: 4, 8000: 3}
CORPUS_CNV_SIZES = (5, 10, 20, 30, 40, 50)

MIN_CNV_GAP = 100


@dataclass(frozen=True)
class Sequence:
    """One sequence the CLI fits on its own: a chromosome arm or an
    unsplit chromosome, as a half-open row range of the track file."""

    chrom: str
    start: int
    stop: int


@dataclass
class Genome:
    """The genome track file's columns plus its planted truth."""

    snp_ids: list
    chrom: np.ndarray
    positions: np.ndarray
    logr: np.ndarray
    baf: np.ndarray
    true_copy: np.ndarray
    true_nb: np.ndarray
    sequences: list
    split_at: str

    @property
    def n(self) -> int:
        return self.positions.size


@dataclass
class Corpus:
    """Short arms held as concatenated arrays with row offsets."""

    offsets: np.ndarray
    logr: np.ndarray
    baf: np.ndarray
    true_copy: np.ndarray
    true_nb: np.ndarray

    @property
    def n_arms(self) -> int:
        return self.offsets.size - 1

    def arm(self, k: int) -> slice:
        return slice(int(self.offsets[k]), int(self.offsets[k + 1]))


def _place(rng, n: int, sizes, margin: int) -> list[int]:
    """Random non-overlapping starts for intervals of the given sizes, in
    order, with at least ``margin`` SNPs between intervals and the ends."""
    free = n - sum(sizes) - margin * (len(sizes) + 1)
    if free < 0:
        raise ValueError("CNVs do not fit the sequence")
    cuts = np.sort(rng.integers(0, free + 1, size=len(sizes)))
    starts, used = [], 0
    for k, size in enumerate(sizes):
        starts.append(int(cuts[k]) + margin * (k + 1) + used)
        used += size
    return starts


def _plant(rng, n: int, sizes, types, gap: int) -> np.ndarray:
    order = rng.permutation(len(sizes))
    sizes = [sizes[k] for k in order]
    types = [types[k] for k in order]
    copy = np.full(n, 2, dtype=np.int64)
    for start, size, c in zip(_place(rng, n, sizes, gap), sizes, types):
        copy[start : start + size] = c
    return copy


def _measure(rng, copy: np.ndarray):
    """Draw genotypes, LogR and BAF for a copy-number vector."""
    nb = rng.binomial(copy, MAF)
    logr = rng.normal(np.asarray(MU)[copy], SIGMA_LOGR)
    centers = np.where(copy > 0, nb / np.maximum(copy, 1), 0.0)
    baf = rng.normal(centers, SIGMA_BAF)
    baf = np.where(copy == 0, rng.uniform(0.0, 1.0, size=copy.size), baf)
    return nb, logr, np.clip(baf, 0.0, 1.0)


def _cycle(values, count: int) -> list:
    return [values[k % len(values)] for k in range(count)]


def make_genome(seed: int) -> Genome:
    rng = np.random.default_rng([seed, 1])
    copies, chroms, positions, sequences, cuts = [], [], [], [], []
    row = 0
    layout = [(str(c + 1), arms) for c, arms in enumerate(ARM_LENGTHS)]
    layout.append((str(len(ARM_LENGTHS) + 1), (TUMOUR_LENGTH,)))
    for chrom, arms in layout:
        pos = int(rng.integers(10_000, 50_000))
        for a, n in enumerate(arms):
            if a:
                pos += 3_000_000  # centromere gap
                cuts.append(f"{chrom}:{pos}")
            if len(arms) == 1:
                sizes = _cycle(TUMOUR_CNV_SIZES, TUMOUR_CNVS)
                types = _cycle(TUMOUR_CNV_TYPES, TUMOUR_CNVS)
                gap = TUMOUR_CNV_GAP
            else:
                k = n // SNPS_PER_ARM_CNV
                sizes = _cycle(ARM_CNV_SIZES, k)
                types = _cycle(ARM_CNV_TYPES, k)
                gap = MIN_CNV_GAP
            copies.append(_plant(rng, n, sizes, types, gap))
            gaps = rng.integers(500, 20_000, size=n)
            gaps[0] = 0
            positions.append(pos + np.cumsum(gaps))
            pos = int(positions[-1][-1]) + 1
            chroms.append(np.full(n, chrom))
            sequences.append(Sequence(chrom, row, row + n))
            row += n
    copy = np.concatenate(copies)
    nb, logr, baf = _measure(rng, copy)
    return Genome(
        snp_ids=[f"rs{1_000_000 + i}" for i in range(copy.size)],
        chrom=np.concatenate(chroms),
        positions=np.concatenate(positions).astype(np.int64),
        logr=logr,
        baf=baf,
        true_copy=copy,
        true_nb=nb,
        sequences=sequences,
        split_at=",".join(cuts),
    )


def make_corpus(seed: int) -> Corpus:
    rng = np.random.default_rng([seed, 2])
    lengths = [n for n, count in CORPUS_ARMS.items() for _ in range(count)]
    lengths = [lengths[k] for k in rng.permutation(len(lengths))]
    copies = []
    for k, n in enumerate(lengths):
        size = CORPUS_CNV_SIZES[(k // 2) % len(CORPUS_CNV_SIZES)]
        copy = np.full(n, 2, dtype=np.int64)
        start = int(rng.integers(MIN_CNV_GAP, n - size - MIN_CNV_GAP))
        copy[start : start + size] = 1 if k % 2 == 0 else 3
        copies.append(copy)
    copy = np.concatenate(copies)
    nb, logr, baf = _measure(rng, copy)
    return Corpus(
        offsets=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
        logr=logr,
        baf=baf,
        true_copy=copy,
        true_nb=nb,
    )


def write_track(genome: Genome, path: str) -> None:
    """The track file in the CLI's format. Values carry 6 significant
    digits, like the CLI's own output; nothing outside [0, 1] needs
    clamping."""
    lines = ["snp_id\tchrom\tpos\tlogr\tbaf"]
    lines += [
        f"{s}\t{c}\t{p}\t{y:.6g}\t{x:.6g}"
        for s, c, p, y, x in zip(
            genome.snp_ids,
            genome.chrom.tolist(),
            genome.positions.tolist(),
            genome.logr.tolist(),
            genome.baf.tolist(),
        )
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_all(seed: int, out: str) -> dict:
    """Write every input of one seed under ``out``; return their paths."""
    os.makedirs(out, exist_ok=True)
    genome = make_genome(seed)
    corpus = make_corpus(seed)
    paths = {
        "track": os.path.join(out, "genome.tsv"),
        "split_at": os.path.join(out, "split_at.txt"),
        "genome_truth": os.path.join(out, "genome_truth.npz"),
        "corpus": os.path.join(out, "corpus.npz"),
    }
    write_track(genome, paths["track"])
    with open(paths["split_at"], "w", encoding="utf-8") as fh:
        fh.write(genome.split_at + "\n")
    np.savez(
        paths["genome_truth"],
        true_copy=genome.true_copy,
        true_nb=genome.true_nb,
        sequences=np.array([[s.start, s.stop] for s in genome.sequences]),
    )
    save_corpus(corpus, paths["corpus"])
    return paths


_CORPUS_FIELDS = ("offsets", "logr", "baf", "true_copy", "true_nb")


def save_corpus(corpus: Corpus, path: str) -> None:
    np.savez(path, **{k: getattr(corpus, k) for k in _CORPUS_FIELDS})


def load_corpus(path: str) -> Corpus:
    with np.load(path) as z:
        return Corpus(**{k: z[k] for k in _CORPUS_FIELDS})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the inputs")
    args = parser.parse_args()
    for name, path in write_all(args.seed, args.out).items():
        print(f"{name}\t{path}")


if __name__ == "__main__":
    main()
