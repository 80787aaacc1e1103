"""Deterministic synthetic corpora for tests, benchmarks, and demos.

Real group messages cannot ship with the package, so these generators
produce fixed, seeded stand-ins in the same three language registers
(Bengali script, English, Latin-script Bengali). The separable corpus is
decidable from keywords alone; the imbalanced corpus mixes in hard
negatives (appreciation posts, donor self-offers) that share vocabulary
with true requests.
"""

from __future__ import annotations

import numpy as np

from .corpus import Corpus, LabeledSample
from .schema import (
    BLOOD_GROUPS,
    Compensation,
    Contact,
    ParsedRequest,
    ParseOutcome,
    Patient,
)

GROUPS = BLOOD_GROUPS

_CITIES = ("Dhaka", "Chittagong", "Khulna", "Rajshahi", "Sylhet", "Rangpur", "Comilla")
_HOSPITALS = (
    "Square Hospital",
    "City Medical College",
    "Green Clinic",
    "Popular Hospital",
    "Metro Medical College",
)

_POSITIVE_EN = (
    "Urgent! {bags} bags {group} blood needed at {hospital}, {city}. Call {phone} today.",
    "{group} blood needed for surgery patient at {hospital} in {city}. {bags} bags. Contact {phone}.",
    "Emergency: need {bags} units {group} blood tomorrow at {hospital}, {city}. Please call {phone}.",
    "Need {group} blood donor near {city}. {bags} bags required at {hospital}. Phone {phone}.",
)
_POSITIVE_TBN = (
    "Joruri vittite {bags} bag {group} rokto dorkar {hospital}, {city}. Jogajog korun {phone}.",
    "{city} te ekjon rogir jonno {group} rokto lagbe, {bags} bag, {hospital}. Phone {phone}.",
    "Ajke {hospital} e {group} rokto proyojon, {bags} bag. Doya kore call din {phone}.",
)
_POSITIVE_BN = (
    "জরুরি ভিত্তিতে {hospital}, {city} এ {group} রক্ত দরকার, {bags} ব্যাগ। যোগাযোগ {phone}।",
    "{city} এর একজন রোগীর জন্য {group} রক্ত প্রয়োজন, {bags} ব্যাগ। ফোন {phone}।",
    "আজ {hospital} এ {group} রক্ত লাগবে ({bags} ব্যাগ)। কল করুন {phone}।",
)

# Quiet positives: phrased like offers or small talk, easy to miss.
_POSITIVE_SUBTLE = (
    "Keo ki {group} rokto dite parba? Monday ratre operation.",
    "Bhai, {group} hole ektu janaben, rogi {hospital} e ache.",
    "{group} donor hole please message koren, khub taratari lagto.",
    "Is anyone here {group}? My cousin is at {hospital}, please message me.",
    "Anyone {group} near {city}? Would mean a lot to us today.",
    "{name} er baba r jonno {group} khujtesi, {city} side.",
)

_NEGATIVE_EN = (
    "Anyone up for cricket practice this evening at the field?",
    "The chemistry notes from yesterday's class are in the group drive.",
    "Selling a barely used laptop, reasonable price, inbox me.",
    "Happy birthday to our dear admin! Have a wonderful year.",
    "Reminder: the picnic bus leaves at 8 in the morning sharp.",
    "Does anybody know a good plumber near the old market?",
    "Congratulations to everyone who passed the final exam!",
)
_NEGATIVE_TBN = (
    "Ajke class hobe na, sir asbe na janiye dilam sobai ke.",
    "Kal picnic e jabar plan ta ki final holo? Janao amake.",
    "Bhai wifi er speed ekdom kome geche, karo ei somossa hoyeche?",
    "Notun mobile kinlam, camera ta darun, dam o besh bhalo.",
)
_NEGATIVE_BN = (
    "আগামীকাল ক্লাস বন্ধ থাকবে, সবাইকে জানিয়ে দেওয়া হলো।",
    "আমাদের এলাকায় নতুন লাইব্রেরি খোলা হয়েছে, সবাই ঘুরে আসতে পারেন।",
    "বৃষ্টির কারণে আজকের খেলা স্থগিত করা হয়েছে।",
)

# Hard negatives: request-like vocabulary without being requests.
_HARD_NEGATIVE = (
    "We are very grateful to {name} for donating {group} blood at {hospital} yesterday.",
    "Thanks everyone, the {group} blood for my uncle has been managed. You are heroes!",
    "I can donate {group} blood anywhere in {city}. Contact me if you are a recipient.",
    "Ami {group} rokto dite ichchhuk, {city} er ashepashe thakle janaben.",
    "Blood donation camp next Friday at {hospital}! Donate blood, save lives. All groups welcome.",
    "Alhamdulillah, rokto peye gechi, sobai ke osonkho dhonnobad.",
    "Awareness post: regular blood donation is healthy. Urgent appeal to join our donor club.",
    "{name} bhai donated at {hospital} today. Emergency averted, thanks to this group.",
)

_NAMES = ("Rahim", "Karim", "Fatema", "Anika", "Sabbir", "Nusrat", "Tanvir")


def _phone(rng: np.random.Generator) -> str:
    prefix = rng.choice(["017", "018", "019", "015", "016"])
    return prefix + "".join(str(rng.integers(0, 10)) for _ in range(8))


def _fill(template: str, rng: np.random.Generator) -> str:
    return template.format(
        bags=str(rng.integers(1, 5)),
        group=str(rng.choice(GROUPS)),
        hospital=str(rng.choice(_HOSPITALS)),
        city=str(rng.choice(_CITIES)),
        phone=_phone(rng),
        name=str(rng.choice(_NAMES)),
    )


def _positive(rng: np.random.Generator, subtle_rate: float = 0.0) -> tuple[str, str]:
    if subtle_rate and rng.random() < subtle_rate:
        return _fill(str(rng.choice(_POSITIVE_SUBTLE)), rng), "tbn"
    lang = rng.choice(["en", "tbn", "bn"], p=[0.4, 0.25, 0.35])
    pool = {"en": _POSITIVE_EN, "tbn": _POSITIVE_TBN, "bn": _POSITIVE_BN}[lang]
    return _fill(str(rng.choice(pool)), rng), str(lang)


def _negative(rng: np.random.Generator, hard_rate: float) -> tuple[str, str]:
    if rng.random() < hard_rate:
        return _fill(str(rng.choice(_HARD_NEGATIVE)), rng), "en"
    lang = rng.choice(["en", "tbn", "bn"], p=[0.5, 0.25, 0.25])
    pool = {"en": _NEGATIVE_EN, "tbn": _NEGATIVE_TBN, "bn": _NEGATIVE_BN}[lang]
    return str(rng.choice(pool)), str(lang)


def separable_corpus(n: int = 400, seed: int = 13) -> Corpus:
    """Keyword presence determines the label; no hard negatives."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        if i % 2 == 0:
            text, lang = _positive(rng)
            label = 1
        else:
            text, lang = _negative(rng, hard_rate=0.0)
            label = 0
        samples.append(LabeledSample(text=f"{text} [{i}]", label=label, language=lang, source="synthetic"))
    return Corpus(samples=tuple(samples), provenance=f"synthetic-separable-{n}-{seed}")


def imbalanced_bilingual_corpus(
    n: int = 2000,
    positive_rate: float = 0.05,
    hard_rate: float = 0.45,
    subtle_rate: float = 0.5,
    seed: int = 29,
) -> Corpus:
    """Low-positive-rate stream with request-like hard negatives mixed in."""
    rng = np.random.default_rng(seed)
    n_pos = round(n * positive_rate)
    samples = []
    for i in range(n):
        if i < n_pos:
            text, lang = _positive(rng, subtle_rate=subtle_rate)
            label = 1
        else:
            text, lang = _negative(rng, hard_rate=hard_rate)
            label = 0
        samples.append(LabeledSample(text=f"{text} [{i}]", label=label, language=lang, source="synthetic"))
    order = rng.permutation(n)
    shuffled = tuple(samples[i] for i in order)
    return Corpus(samples=shuffled, provenance=f"synthetic-imbalanced-{n}-{seed}")


def adversarial_negatives(n: int = 600, seed: int = 41) -> Corpus:
    """Non-requests deliberately stuffed with request vocabulary."""
    rng = np.random.default_rng(seed)
    samples = tuple(
        LabeledSample(
            text=f"{_fill(str(rng.choice(_HARD_NEGATIVE)), rng)} [{i}]",
            label=0,
            language="en",
            source="curated-adversarial",
        )
        for i in range(n)
    )
    return Corpus(samples=samples, provenance=f"synthetic-adversarial-{n}-{seed}")


def goldset(n: int = 60, seed: int = 17) -> list[tuple[str, ParseOutcome, str]]:
    """Messages paired with schema-true outcomes, known by construction.

    Positives follow one rigid phrasing per language so the gold object is
    exact; a third of the items are negatives flagged as such.
    """
    rng = np.random.default_rng(seed)
    items: list[tuple[str, ParseOutcome, str]] = []
    for i in range(n):
        lang = ("en", "bn", "tbn")[i % 3]
        if i % 3 == 2 and i % 2 == 0:
            text, _ = _negative(rng, hard_rate=0.0)
            items.append((text, ParseOutcome.negative(), lang))
            continue
        group = str(rng.choice(GROUPS))
        bags = str(rng.integers(1, 5))
        city = str(rng.choice(_CITIES))
        hospital = str(rng.choice(_HOSPITALS))
        phone = _phone(rng)
        text = f"Urgent! {bags} bags {group} blood needed today at {hospital}, {city}. Call {phone}."
        gold = ParsedRequest(
            blood_group=group,
            bags_needed=bags,
            patient=Patient(),
            condition="",
            location=hospital,
            hospital_name=hospital,
            location_markers=(city,),
            probable_day="today",
            probable_time="",
            contacts=(Contact(contact_numbers=(phone,)),),
            compensation=Compensation(),
        )
        items.append((text, ParseOutcome.positive(gold), lang))
    return items
