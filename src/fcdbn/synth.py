"""Synthetic face-like corpus with controllable family resemblance.

Each family draws one latent coefficient vector over 16 smooth basis
images; each member mixes that latent with individual noise, weighted by the
separability knob (1.0 = members identical, 0.0 = no family signal). The
bases are spatially localized oriented bumps on a 4x4 grid, so family traits
live in specific face areas the way real kin resemblance does. Images render
as aligned faces in [0, 1], so they round-trip through 8-bit PGM files.
"""
from __future__ import annotations

import numpy as np

from .core import RngStream
from .kvrl import FACE_SIZE
from .storage import RELATIONS, KinPair

N_BASES = 16
TRAIN_FAMILY_FRAC = 0.6
PIXEL_NOISE = 0.08
_RENDER_SCALE = 5.0
_BUMP_SIGMA = 7.0
_COARSE_WAVELENGTH = 12.0
_FINE_WAVELENGTH = 5.0

# grid cells covered by the eye/nose area: traits there are fine-scale,
# like real midface microstructure; a half-resolution whole-face view
# blurs them while the tighter crops keep them
_FINE_CELLS = {(1, 0), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)}


def basis_images():
    """16 Gaussian-windowed oriented cosine bumps tiling a face 4x4."""
    rr, cc = np.indices((FACE_SIZE, FACE_SIZE))
    cell = FACE_SIZE // 4
    bases = []
    idx = 0
    for i in range(4):
        for j in range(4):
            cr = cell // 2 + cell * i
            ck = cell // 2 + cell * j
            if (i, j) in _FINE_CELLS:
                theta = 0.0  # vary along rows, which the midface crop keeps 1:1
                wavelength = _FINE_WAVELENGTH
            else:
                theta = idx * np.pi / N_BASES
                wavelength = _COARSE_WAVELENGTH
            along = (rr - cr) * np.cos(theta) + (cc - ck) * np.sin(theta)
            window = np.exp(-((rr - cr) ** 2 + (cc - ck) ** 2)
                            / (2.0 * _BUMP_SIGMA ** 2))
            bases.append(window * np.cos(2.0 * np.pi * along / wavelength))
            idx += 1
    return np.stack(bases)


def _render(weights, bases):
    raw = np.tensordot(weights, bases, axes=1)
    return np.clip(0.5 + raw / _RENDER_SCALE, 0.0, 1.0)


def synth_kin(seed, families, members_per_family, separability):
    """Generate a family-structured corpus plus its pair manifest.

    Returns (images, pairs): ``images`` maps subject id -> face array in
    [0, 1]; ``pairs`` holds disjoint within-family kin rows (each image
    appears in at most one kin row, so the single-use negative-pair rule
    stays satisfiable) plus an equal number of cross-family nonkin rows.
    Fully deterministic in the seed.
    """
    if families < 1 or members_per_family < 1:
        raise ValueError("families and members_per_family must be >= 1")
    if not 0.0 <= separability <= 1.0:
        raise ValueError(f"separability must be in [0, 1], got {separability}")
    bases = basis_images()
    stream = RngStream(seed=seed)
    images = {}
    subjects = []
    for f in range(families):
        latent = stream.child(2 * f).gaussian(N_BASES)
        noise_stream = stream.child(2 * f + 1)
        for m in range(members_per_family):
            eps = noise_stream.gaussian(N_BASES)
            w = separability * latent + (1.0 - separability) * eps
            subject = f"fam{f:03d}_m{m}"
            images[subject] = _render(w, bases)
            subjects.append((f, subject))

    pairs = []
    rel_cursor = 0
    for f in range(families):
        fam = [s for ff, s in subjects if ff == f]
        for i in range(0, len(fam) - 1, 2):
            pairs.append(KinPair(
                path_a=f"{fam[i]}.pgm", path_b=f"{fam[i + 1]}.pgm",
                label="kin", relation=RELATIONS[rel_cursor % len(RELATIONS)],
                subject_a=fam[i], subject_b=fam[i + 1]))
            rel_cursor += 1

    n_kin = len(pairs)
    neg_stream = stream.child(10 ** 6)
    made = 0
    guard = 0
    while made < n_kin and guard < 10000:
        guard += 1
        picks = (neg_stream.uniform01(2) * len(subjects)).astype(int)
        fa, sa = subjects[picks[0]]
        fb, sb = subjects[picks[1]]
        if fa == fb:
            continue
        pairs.append(KinPair(
            path_a=f"{sa}.pgm", path_b=f"{sb}.pgm", label="nonkin",
            relation=RELATIONS[rel_cursor % len(RELATIONS)],
            subject_a=sa, subject_b=sb))
        rel_cursor += 1
        made += 1
    return images, pairs


def make_kin_benchmark(seed, n_families, members_per_family, separability,
                       n_test_pairs, corpus_families=None):
    """Family-disjoint corpus / train pairs / test pairs for AUC runs.

    The pretraining corpus comes from its own families. Train and test
    labeled pairs use all within-family member combinations as positives
    plus an equal number of cross-family negatives, from disjoint family
    blocks (``TRAIN_FAMILY_FRAC`` of the families train). Test pairs are cut
    or padded toward ``n_test_pairs``. Entries are (array_a, array_b, label).

    Every rendered image gets i.i.d. N(0, ``PIXEL_NOISE``) sensor noise
    (clipped back to [0, 1]): family resemblance stays basis-structured
    while acquisition noise is white, the regime a robust representation
    is supposed to survive.
    """
    corpus_families = corpus_families or max(4, n_families // 2)

    def noisy(images, child_index):
        noise_stream = RngStream(seed=seed + 3).child(child_index)
        out = {}
        for subject, img in images.items():
            noise = noise_stream.gaussian(img.size, sigma=PIXEL_NOISE)
            out[subject] = np.clip(img + noise.reshape(img.shape), 0.0, 1.0)
        return out

    corpus_images, _ = synth_kin(seed + 1, corpus_families,
                                 members_per_family, separability)
    corpus = list(noisy(corpus_images, 0).values())

    images, _ = synth_kin(seed, n_families, members_per_family, separability)
    images = noisy(images, 1)
    by_family = {}
    for subject, img in images.items():
        fam = subject.split("_")[0]
        by_family.setdefault(fam, []).append(img)
    fams = sorted(by_family)
    n_train = max(1, int(round(TRAIN_FAMILY_FRAC * len(fams))))
    train_fams, test_fams = fams[:n_train], fams[n_train:]

    stream = RngStream(seed=seed + 2)

    def build_pairs(family_names, n_pairs, child):
        pos = []
        for fam in family_names:
            members = by_family[fam]
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    pos.append((members[i], members[j], 1))
        sub = stream.child(child)
        order = sub.permutation(len(pos))
        pos = [pos[i] for i in order]
        n_pos = min(len(pos), (n_pairs + 1) // 2) if n_pairs else len(pos)
        pos = pos[:n_pos]
        neg = []
        target_neg = (n_pairs - n_pos) if n_pairs else n_pos
        guard = 0
        while len(neg) < target_neg:
            guard += 1
            if guard > 100000:
                break
            picks = (sub.uniform01(2) * len(family_names)).astype(int)
            fa, fb = family_names[picks[0]], family_names[picks[1]]
            if fa == fb:
                continue
            ma = int(sub.uniform01(1)[0] * len(by_family[fa]))
            mb = int(sub.uniform01(1)[0] * len(by_family[fb]))
            neg.append((by_family[fa][ma], by_family[fb][mb], 0))
        return pos + neg

    train_pairs = build_pairs(train_fams, 0, 3)
    test_pairs = build_pairs(test_fams, n_test_pairs, 4)
    return corpus, train_pairs, test_pairs
