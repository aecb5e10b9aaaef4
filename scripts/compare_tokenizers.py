"""Check that two emofuse trees tokenize alike, and time each on seven input classes.

Usage: python3 scripts/compare_tokenizers.py PARENT_SRC [CHANGE_SRC]

Each argument is a directory that holds an `emofuse` package; CHANGE_SRC
defaults to this checkout's `src`. Seven classes of 5,000 posts are drawn
from a fixed seed over the words of `data/toy_word_vectors.txt`:

  mark-free      words and single-scalar pictographs
  +VS16          the same posts plus ❤️ (heart + VS16)
  +tone+ZWJ      the same posts plus 👍🏽 (skin tone) and 👨‍💻 (ZWJ sequence)
  +sigma         the same posts plus a word with a capital sigma
  routed         the same posts plus a word holding "_", which splits it,
                 and one holding ❶, an alphanumeric emoji scalar, which
                 sends the post to the general pattern though it holds no
                 joiner, selector or skin tone
  punctuated     capitalised, punctuated posts without emoji
  +keycap+tag    the mark-free posts plus the keycaps 1️⃣ and #️⃣ and the
                 tag-sequence flag 🏴󠁧󠁢󠁳󠁣󠁴󠁿 (Scotland), whose keycap mark
                 U+20E3 and tag scalars U+E0020-E007F `_SEQUENCE_PARTS`
                 does not list yet, so the tokenizer still mangles them

Each tree tokenizes every class in its own subprocess, with that tree first
on PYTHONPATH, once per round; the two trees alternate which runs first.
A run times each class as the best of REPEATS passes. One line per class
gives each tree's median µs/post over the ROUNDS rounds and its first and
third quartiles, the change's speed-up of the medians, in how many rounds
the change was faster than the parent run beside it, and whether both
trees emitted the same kinds and surfaces for every post;
the exit status is 1 on any token difference. Kinds and surfaces are read
by iterating each sequence, so the two trees may store them differently.

The subprocess rounds are noisy on a shared 2-core VM. Two runs comparing a
tree that reads kinds off surfaces with one that stores them read
0.95-1.46x and 0.67-0.93x per class, while an interleaved in-process A/B
of the same two trees over the same classes read 1.10-1.29x, faster in
17-20 of 20 rounds in every class. Read the speed-up column together with
the quartiles and the win count, and the token column as the result.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import tempfile

from spread import quartiles, wins

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
POSTS = 5000
ROUNDS = 10
REPEATS = 3
# single-scalar pictographs, skin tones (U+1F3FB..U+1F3FF) left out
PICTOGRAPHS = [chr(cp) for lo, hi in ((0x1F300, 0x1F3FA), (0x1F400, 0x1F5FF), (0x1F600, 0x1F64F))
               for cp in range(lo, hi + 1)]
ADDED = {
    "+VS16": ("\u2764\ufe0f",),
    "+tone+ZWJ": ("\U0001F44D\U0001F3FD", "\U0001F468\u200d\U0001F4BB"),
    "+sigma": ("ΟΔΟΣ",),
    "routed": ("snake_case", "no\u2776"),
}
# Drawn after the punctuated class, so no other class depends on it.
KEYCAP_TAG = ("1\ufe0f\u20e3", "#\ufe0f\u20e3",
              "\U0001F3F4\U000E0067\U000E0062\U000E0073\U000E0063\U000E0074\U000E007F")
PUNCTUATION = ("", "", "", ",", ".", "!", "?", ":", "...", "'s")

# Run in each tree's subprocess: argv is the classes file and, on the first
# round, the file to write the tokens to.
WORKER = """
import json, sys, time
from emofuse.tokenization import tokenize
with open(sys.argv[1], encoding="utf-8") as fh:
    classes = json.load(fh)
timings, tokens = {}, {}
for name, posts in classes.items():
    best = float("inf")
    for _ in range(%d):
        began = time.perf_counter()
        seqs = [tokenize(post) for post in posts]
        best = min(best, time.perf_counter() - began)
    timings[name] = 1e6 * best / len(posts)
    tokens[name] = [[[t.kind for t in seq], [t.surface for t in seq]] for seq in seqs]
if len(sys.argv) > 2:
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(tokens, fh, ensure_ascii=False)
print(json.dumps(timings))
""" % REPEATS


def read_words() -> list[str]:
    with open(os.path.join(ROOT, "data", "toy_word_vectors.txt"), encoding="utf-8") as fh:
        fh.readline()
        return [line.split(" ", 1)[0] for line in fh if line.strip()]


def make_classes(words: list[str]) -> dict[str, list[str]]:
    rng = random.Random(SEED)
    base = []
    for _ in range(POSTS):
        tokens = rng.choices(words, k=rng.randint(8, 30))
        for emoji in rng.choices(PICTOGRAPHS, k=rng.randint(1, 5)):
            tokens.insert(rng.randint(0, len(tokens)), emoji)
        base.append(tokens)

    def with_added(added: tuple[str, ...]) -> list[str]:
        posts = []
        for tokens in base:
            tokens = list(tokens)
            for extra in added:
                tokens.insert(rng.randint(0, len(tokens)), extra)
            posts.append(" ".join(tokens))
        return posts

    classes = {"mark-free": [" ".join(tokens) for tokens in base]}
    for name, added in ADDED.items():
        classes[name] = with_added(added)
    classes["punctuated"] = [
        " ".join((w.capitalize() if rng.random() < 0.2 else w) + rng.choice(PUNCTUATION)
                 for w in rng.choices(words, k=rng.randint(8, 30)))
        for _ in range(POSTS)]
    classes["+keycap+tag"] = with_added(KEYCAP_TAG)
    return classes


def run_tree(tree: str, classes_path: str, tokens_path: str | None) -> dict[str, float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(tree), env.get("PYTHONPATH")]))
    args = [sys.executable, "-c", WORKER, classes_path] + ([tokens_path] if tokens_path else [])
    result = subprocess.run(args, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"{tree}: tokenizing exited {result.returncode}:\n{result.stderr}")
    return json.loads(result.stdout)


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        sys.exit(__doc__.strip().splitlines()[2])
    trees = [argv[0], argv[1] if len(argv) == 2 else os.path.join(ROOT, "src")]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "emofuse", "__init__.py")):
            sys.exit(f"{tree} holds no emofuse package")
    classes = make_classes(read_words())
    timings: list[list[dict[str, float]]] = [[], []]
    with tempfile.TemporaryDirectory() as tmp:
        classes_path = os.path.join(tmp, "classes.json")
        with open(classes_path, "w", encoding="utf-8") as fh:
            json.dump(classes, fh, ensure_ascii=False)
        token_paths = [os.path.join(tmp, f"tokens{k}.json") for k in range(2)]
        for r in range(ROUNDS):
            for k in (0, 1) if r % 2 == 0 else (1, 0):
                timings[k].append(run_tree(trees[k], classes_path, token_paths[k] if r == 0 else None))
        tokens = []
        for path in token_paths:
            with open(path, encoding="utf-8") as fh:
                tokens.append(json.load(fh))
    equal = True
    print(f"{'class':<12} {'parent µs/post':>15} {'parent IQR':>13} {'change µs/post':>15} {'change IQR':>13} "
          f"{'speed-up':>9} {'wins':>6}  tokens")
    for name in classes:
        times = [[run[name] for run in timings[k]] for k in (0, 1)]
        parent, change = (statistics.median(t) for t in times)
        same = tokens[0][name] == tokens[1][name]
        equal = equal and same
        print(f"{name:<12} {parent:>15.2f} {quartiles(times[0], 2):>13} {change:>15.2f} "
              f"{quartiles(times[1], 2):>13} {parent / change:>8.2f}x {wins(*times):>6}  "
              f"{'equal' if same else 'DIFFER'}")
    print("tokens equal in every class" if equal else "tokens differ")
    return 0 if equal else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
