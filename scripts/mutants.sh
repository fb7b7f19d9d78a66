#!/usr/bin/env bash
# mutants.sh — run the committed mutation list, benchmarks/mutants.txt.
#
# For each entry it copies the working tree (tracked and untracked files,
# ignored ones excluded) into a temporary directory, replaces the entry's
# "-" lines, which must start at the entry's line, with its "+" lines, and
# runs the entry's test there with -count=1. An entry with several "line:"
# fields, each followed by its own "-" and "+" lines, mutates the file in
# several places at once. It prints one line per entry:
#
#   killed    the test failed: the mutant was caught
#   survived  the test passed: a blind spot, or an equivalent mutant when
#             the entry says "expect: survives"
#   broken    the "-" text is not at the line, or the mutant does not build
#
# and exits 1 if any entry was broken or did not end as it expects (killed,
# unless "expect: survives"). The repository itself is never modified.
#
# Usage:
#   scripts/mutants.sh                 # every entry
#   scripts/mutants.sh 'step4|dense'   # entries whose name matches the regex

set -euo pipefail
cd "$(dirname "$0")/.."

filter=${1:-.}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Split the list into one directory per entry: meta (shell assignments)
# and, per hunk i, from$i and to$i.
perl -e '
	my ($list, $dir) = @ARGV;
	open(my $in, "<", $list) or die "$list: $!\n";
	my $n = 0; my %e; my @hunks; # [line, from, to]
	sub flush {
		return unless %e;
		$n++;
		mkdir "$dir/$n" or die;
		$e{line} = join ",", map { $_->[0] } @hunks;
		open(my $m, ">", "$dir/$n/meta") or die;
		for my $k (qw(mutant file line test env expect)) {
			my $v = $e{$k} // ""; $v =~ s/\x27/\x27\\\x27\x27/g;
			print $m "$k=\x27$v\x27\n";
		}
		close $m;
		for my $i (0 .. $#hunks) {
			open(my $f, ">", "$dir/$n/from$i") or die; print $f $hunks[$i][1]; close $f;
			open(my $t, ">", "$dir/$n/to$i") or die; print $t $hunks[$i][2]; close $t;
		}
		%e = (); @hunks = ();
	}
	while (my $l = <$in>) {
		next if $l =~ /^#/;
		if ($l =~ /^\s*$/) { flush(); next; }
		if ($l =~ /^([-+])(.*\n?)/s) {
			die "mutants.txt: line $. comes before any line: field\n" unless @hunks;
			$hunks[-1][$1 eq "-" ? 1 : 2] .= $2;
			next;
		}
		if ($l =~ /^line:\s*(\d+)\s*$/) { push @hunks, [$1, "", ""]; next; }
		if ($l =~ /^(\w+):\s*(.*?)\s*$/) { $e{$1} = $2; next; }
		die "mutants.txt: cannot read line $.: $l";
	}
	flush();
' benchmarks/mutants.txt "$work"

mkdir -p "$work/tree"
git ls-files -coz --exclude-standard | xargs -0 cp --parents -t "$work/tree"

bad=0
for entry in $(find "$work" -mindepth 1 -maxdepth 1 -name '[0-9]*' -printf '%f\n' | sort -n); do
	mutant='' file='' line='' test='' env='' expect=''
	# shellcheck disable=SC1090
	source "$work/$entry/meta"
	[[ $mutant =~ $filter ]] || continue
	copy="$work/copy"
	rm -rf "$copy"
	cp -a "$work/tree" "$copy"
	# Hunks apply bottom-up, so each line: counts in the unmutated file.
	if ! perl -e '
		my ($path, $dir, $lines) = @ARGV;
		local $/;
		open(my $s, "<", $path) or die "$path: $!\n"; my $src = <$s>; close $s;
		my @at = split /,/, $lines;
		for my $i (sort { $at[$b] <=> $at[$a] } 0 .. $#at) {
			my $line = $at[$i];
			open(my $f, "<", "$dir/from$i") or die; my $from = <$f> // ""; close $f;
			open(my $t, "<", "$dir/to$i") or die; my $to = <$t> // ""; close $t;
			my @lines = split /^/, $src;
			die "$path has no line $line\n" if $line < 1 || $line > @lines;
			my $off = 0; $off += length($lines[$_]) for 0 .. $line - 2;
			die "$path:$line does not start the text to mutate\n" if substr($src, $off, length $from) ne $from;
			substr($src, $off, length $from) = $to;
		}
		open(my $o, ">", $path) or die; print $o $src; close $o;
	' "$copy/$file" "$work/$entry" "$line"; then
		printf '%-9s %s\n' broken "$mutant"
		bad=1
		continue
	fi
	pkg=${test%% *} run=${test#* }
	set +e
	out=$(cd "$copy" && env $env go test -count=1 -run "$run" "$pkg" 2>&1)
	status=$?
	set -e
	if [[ $status -eq 0 ]]; then
		verdict=survived
	elif grep -q -e '\[build failed\]' -e '\[setup failed\]' <<<"$out"; then
		verdict=broken
	else
		verdict=killed
	fi
	want=killed
	[[ $expect == survives ]] && want=survived
	note=''
	[[ $verdict == survived && $want == survived ]] && note=' (equivalent, expected)'
	printf '%-9s %s  %s:%s  %s%s\n' "$verdict" "$mutant" "$file" "$line" "$test" "$note"
	[[ $verdict == "$want" ]] || bad=1
done
exit $bad
