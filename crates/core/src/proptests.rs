//! Property tests for the core protocol surface: everything a student
//! (or attacker) can feed the system parses or fails cleanly, and the
//! wire formats round-trip.

use crate::protocol::{decode_block, push_output, JobKind, JobRequest, LogFrame};
use crate::spec::{BuildSpec, SpecError, DEFAULT_BUILD_YML, SUPPORTED_VERSION};
use proptest::prelude::*;
use rai_yaml::Yaml;

fn arb_request() -> impl Strategy<Value = JobRequest> {
    (
        any::<u64>(),
        "[a-zA-Z0-9-]{1,30}",
        "[a-f0-9]{64}",
        "[a-zA-Z0-9 _-]{1,20}",
        "[a-z0-9/._-]{1,40}",
        prop_oneof![Just(JobKind::Run), Just(JobKind::Submit)],
        // Build files with tricky content: quotes, colons, unicode-free
        // printable ASCII plus newlines.
        "[ -~\\n]{0,200}",
    )
        .prop_map(|(job_id, access_key, signature, team, upload_key, kind, build_yml)| JobRequest {
            job_id,
            access_key,
            signature,
            team,
            upload_bucket: "rai-uploads".to_string(),
            upload_key,
            build_yml,
            kind,
        })
}

/// Frame text with the right alphabet: what block framing has to
/// survive is exactly what printable ASCII leaves out — line breaks,
/// carriage returns, tabs, multi-byte characters, the empty string —
/// plus the escape character next to everything it could be mistaken
/// for escaping.
const FRAME_TEXT: &str = "[ -~\\n\\r\\t\\\\é漢🦀\u{2028}]{0,120}";

fn arb_text() -> impl Strategy<Value = String> {
    const ESCAPES: [&str; 12] = [
        "", "\n", "\\", "\\n", "\\\n", "\\\\n", "a\\\\\nb", "\r\n", "tail\\", "\n\n",
        "out a\nerr b", "x\nend ok",
    ];
    prop_oneof![
        FRAME_TEXT,
        FRAME_TEXT,
        (0..ESCAPES.len()).prop_map(|i| ESCAPES[i].to_string()),
    ]
}

fn arb_frame() -> impl Strategy<Value = LogFrame> {
    (0u8..5, arb_text()).prop_map(|(kind, text)| match kind {
        0 => LogFrame::Out(text),
        1 => LogFrame::Err(text),
        2 => LogFrame::Status(text),
        3 => LogFrame::BuildUrl(text),
        _ => LogFrame::End { success: text.len() % 2 == 0 },
    })
}

/// Parser input with the right alphabet: printable ASCII plus what it
/// leaves out — line breaks, tabs and other control characters (NUL,
/// ESC, DEL, the C1 NEL, a byte-order mark), multi-byte characters and
/// the Unicode line and paragraph separators.
const TEXT: &str = "[ -~\\n\\r\\t\\0\u{1}\u{1b}\u{7f}\u{85}\u{feff}é漢🦀\u{2028}\u{2029}]{0,400}";

/// `text` nested `depth` levels deep — inside brackets on one line, or
/// (a quarter as deep: a block level costs a line of indentation) under
/// indented keys. The shape that ran the recursive parser out of
/// stack, which aborts the test binary instead of failing a case.
fn nest(text: &str, depth: usize, flow: bool) -> String {
    if flow {
        return format!("k: {}{text}{}\n", "[".repeat(depth), "]".repeat(depth));
    }
    let depth = depth / 4;
    let mut out: String = (0..depth).map(|i| format!("{}k:\n", " ".repeat(i))).collect();
    for line in text.lines() {
        out.push_str(&" ".repeat(depth));
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// A valid Listing-1 build file bent the way an editor bends one: cut
/// at a char boundary, a line duplicated, a line re-indented by
/// `shift` (±1–4 spaces), a line nested one level deeper under a fresh
/// key, or a quote typed into a line, mid-scalar or where one begins,
/// with a comment after it. The echo line carries multi-byte text so
/// that cuts land next to multi-byte characters.
fn edited_listing1(edit: u8, at: usize, shift: i32) -> String {
    let doc = DEFAULT_BUILD_YML.replace("Building project", "Building 🦀 projét");
    let mut lines: Vec<String> = doc.lines().map(str::to_string).collect();
    let i = at % lines.len();
    match edit {
        0 => {
            let cuts: Vec<usize> = doc.char_indices().map(|(p, _)| p).chain([doc.len()]).collect();
            return doc[..cuts[at % cuts.len()]].to_string();
        }
        1 => lines.insert(i, lines[i].clone()),
        2 => {
            let indent = lines[i].len() - lines[i].trim_start().len();
            let to = (indent as i32 + shift).max(0) as usize;
            lines[i] = format!("{}{}", " ".repeat(to), lines[i].trim_start());
        }
        3 => {
            let indent = " ".repeat(lines[i].len() - lines[i].trim_start().len());
            lines.insert(i, format!("{indent}nested:"));
            lines[i + 1] = format!("  {}", lines[i + 1]);
        }
        _ => {
            let line = &mut lines[i];
            let cuts: Vec<usize> = line.char_indices().map(|(p, _)| p).chain([line.len()]).collect();
            let quote = if shift > 0 { "'" } else { "\"" };
            line.insert_str(cuts[at / 7 % cuts.len()], quote);
            line.push_str(if shift % 2 == 0 { " # it's a note" } else { ": x # c" });
        }
    }
    lines.join("\n") + "\n"
}

/// A request field as an attacker (or an unlucky team name) would make
/// it: printable ASCII plus `\n`/`\t`, and every shape the emitter has
/// to quote.
fn arb_field() -> impl Strategy<Value = String> {
    const QUOTED: [&str; 24] = [
        "", " lead", "trail ", "a: b", "ends:", "a #b", "#", "- x", "-", "42", "-7", "0.1", "0x1F", "1e3",
        "~", "null", "true", "False", ".inf", "\"q\"", "'q'", "[x]", "{x}", "back\\slash\\",
    ];
    prop_oneof![
        "[ -~\\n\\t]{0,40}",
        (0..QUOTED.len()).prop_map(|i| QUOTED[i].to_string()),
    ]
}

/// A request whose fields take every shape the writer quotes.
fn arb_quoted_request() -> impl Strategy<Value = JobRequest> {
    (
        any::<u64>(),
        prop::collection::vec(arb_field(), 6),
        prop_oneof![Just(JobKind::Run), Just(JobKind::Submit)],
    )
        .prop_map(|(job_id, fields, kind)| {
            let [access_key, signature, team, upload_bucket, upload_key, build_yml]: [String; 6] =
                fields.try_into().expect("six fields");
            JobRequest { job_id, access_key, signature, team, upload_bucket, upload_key, build_yml, kind }
        })
}

/// An encoded request (one `key: value` line per field) bent out of
/// its writer's layout by one edit: line `at` dropped, duplicated or
/// swapped with line `other`; a comment line, a trailing comment, a
/// blank line, a carriage return or indentation added; the value
/// re-quoted; or a ninth key appended. A swap of a line with itself
/// leaves the text as it was.
fn edited_request(text: &str, edit: u8, at: usize, other: usize) -> String {
    let mut lines: Vec<String> = text.split_terminator('\n').map(str::to_string).collect();
    if lines.is_empty() {
        return text.to_string();
    }
    let (i, j) = (at % lines.len(), other % lines.len());
    match edit {
        0 => drop(lines.remove(i)),
        1 => lines.insert(i, lines[i].clone()),
        2 => lines.swap(i, j),
        3 => lines.insert(i, "# a comment".to_string()),
        4 => lines[i].push_str(" # a comment"),
        5 => lines.insert(i, String::new()),
        6 => lines[i].push('\r'),
        7 => lines[i].insert_str(0, &" ".repeat(1 + other % 4)),
        8 => {
            // Plain to double-quoted, double-quoted to single-quoted or
            // plain: the same value, to the parser, where the quoting
            // allows it.
            if let Some((key, value)) = lines[i].split_once(": ") {
                let requoted = match value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
                    Some(inner) if other.is_multiple_of(2) => inner.to_string(),
                    Some(inner) => format!("'{}'", inner.replace('\'', "''")),
                    None => format!("\"{value}\""),
                };
                lines[i] = format!("{key}: {requoted}");
            }
        }
        _ => lines.push("priority: 1".to_string()),
    }
    lines.join("\n") + "\n"
}

/// `encode` as it was before it streamed: build the mapping, render it.
fn reference_encode(r: &JobRequest) -> String {
    let s = |v: &str| Yaml::Str(v.to_string());
    rai_yaml::to_string(&Yaml::Map(vec![
        ("job_id".into(), Yaml::Int(r.job_id as i64)),
        ("access_key".into(), s(&r.access_key)),
        ("signature".into(), s(&r.signature)),
        ("team".into(), s(&r.team)),
        ("upload_bucket".into(), s(&r.upload_bucket)),
        ("upload_key".into(), s(&r.upload_key)),
        (
            "kind".into(),
            s(match r.kind {
                JobKind::Run => "run",
                JobKind::Submit => "submit",
            }),
        ),
        ("build_yml".into(), s(&r.build_yml)),
    ]))
}

/// `decode` as it was before it moved strings out of the document,
/// with its rule for a message cut before its last line break: `encode`
/// ends every line it writes, so such a message is malformed.
fn reference_decode(text: &str) -> Option<JobRequest> {
    if !text.ends_with('\n') {
        return None;
    }
    let doc = rai_yaml::parse(text).ok()?;
    let s = |k: &str| doc.get(k)?.as_str().map(str::to_string);
    Some(JobRequest {
        job_id: doc.get("job_id")?.as_i64()? as u64,
        access_key: s("access_key")?,
        signature: s("signature")?,
        team: s("team")?,
        upload_bucket: s("upload_bucket")?,
        upload_key: s("upload_key")?,
        build_yml: s("build_yml")?,
        kind: match doc.get("kind")?.as_str()? {
            "submit" => JobKind::Submit,
            "run" => JobKind::Run,
            _ => return None,
        },
    })
}

/// `BuildSpec::parse` as it was before it consumed the document.
fn reference_spec(text: &str) -> Result<BuildSpec, SpecError> {
    let doc = rai_yaml::parse(text).map_err(|e| SpecError::Yaml(e.to_string()))?;
    doc.get("rai")
        .and_then(Yaml::as_map)
        .ok_or(SpecError::MissingRaiSection)?;
    let version = match doc.path(&["rai", "version"]) {
        Some(v) => v
            .as_f64()
            .ok_or_else(|| SpecError::BadVersion(format!("{v:?}")))?,
        None => return Err(SpecError::BadVersion("missing".to_string())),
    };
    if version > SUPPORTED_VERSION {
        return Err(SpecError::UnsupportedVersion(version));
    }
    let image = doc
        .path(&["rai", "image"])
        .and_then(Yaml::as_str)
        .filter(|s| !s.is_empty())
        .ok_or(SpecError::MissingImage)?
        .to_string();
    let build_yaml = doc
        .path(&["commands", "build"])
        .and_then(Yaml::as_seq)
        .filter(|s| !s.is_empty())
        .ok_or(SpecError::MissingBuildCommands)?;
    let mut build = Vec::new();
    for (i, cmd) in build_yaml.iter().enumerate() {
        match cmd.scalar_to_string() {
            Some(s) if !s.is_empty() => build.push(s),
            _ => return Err(SpecError::BadCommand(i)),
        }
    }
    Ok(BuildSpec {
        image,
        build,
        gpus: doc
            .path(&["resources", "gpus"])
            .and_then(Yaml::as_i64)
            .map(|g| g.max(0) as u32),
    })
}

/// The case `build_spec_accepts_generated_valid_files` once shrank to,
/// before its commands had to start with a letter: a plain `.0` is the
/// float 0, so the command the spec keeps is `0.0`, as the reference's
/// is.
#[test]
fn a_float_command_parses_as_the_reference_does() {
    let yml = "rai:\n  version: 0.1\n  image: a\ncommands:\n  build:\n    - .0\n";
    assert_eq!(BuildSpec::parse(yml), reference_spec(yml));
    let spec = BuildSpec::parse(yml).expect("a float scalar is a command");
    assert_eq!((spec.image.as_str(), spec.build), ("a", vec!["0.0".to_string()]));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The WAL's intent ledger stores encoded requests, so the streamed
    /// encoder must produce the tree emitter's bytes, not merely text
    /// that decodes to the same request.
    #[test]
    fn streamed_encode_equals_tree_rendering(
        job_id in any::<u64>(),
        fields in prop::collection::vec(arb_field(), 6),
        kind in prop_oneof![Just(JobKind::Run), Just(JobKind::Submit)],
    ) {
        let [access_key, signature, team, upload_bucket, upload_key, build_yml]: [String; 6] =
            fields.try_into().expect("six fields");
        let req = JobRequest { job_id, access_key, signature, team, upload_bucket, upload_key, build_yml, kind };
        let encoded = req.encode();
        prop_assert_eq!(&encoded, &reference_encode(&req));
        prop_assert_eq!(JobRequest::decode(&encoded), Some(req));
    }

    #[test]
    fn decode_equals_reference(req in arb_request(), garbage in TEXT, cut in 0usize..400) {
        let encoded = req.encode();
        prop_assert_eq!(JobRequest::decode(&encoded), reference_decode(&encoded));
        // A truncated message (a field missing, a scalar cut short).
        let cut = &encoded[..cut.min(encoded.len())];
        prop_assert_eq!(JobRequest::decode(cut), reference_decode(cut));
        prop_assert_eq!(JobRequest::decode(&garbage), reference_decode(&garbage));
    }

    /// A request is read only in the layout it was written: whatever
    /// edited text decodes is the encoding of what it decodes to, and
    /// reads the same as the whole YAML document.
    #[test]
    fn decode_reads_only_what_encode_writes(
        req in prop_oneof![arb_request(), arb_quoted_request()],
        edits in prop::collection::vec((0u8..10, any::<usize>(), any::<usize>()), 1..4),
    ) {
        let mut text = req.encode();
        for (edit, at, other) in edits {
            text = edited_request(&text, edit, at, other);
        }
        if let Some(decoded) = JobRequest::decode(&text) {
            prop_assert_eq!(&decoded.encode(), &text);
            prop_assert_eq!(reference_decode(&text), Some(decoded));
        }
    }

    #[test]
    fn decode_never_panics_on_frame_text(text in FRAME_TEXT, req in arb_request(), at in any::<usize>()) {
        let _ = JobRequest::decode(&text);
        // Spliced into a request, at a character boundary of it.
        let encoded = req.encode();
        let cuts: Vec<usize> = encoded.char_indices().map(|(p, _)| p).chain([encoded.len()]).collect();
        let at = cuts[at % cuts.len()];
        let spliced = format!("{}{text}{}", &encoded[..at], &encoded[at..]);
        if let Some(decoded) = JobRequest::decode(&spliced) {
            prop_assert_eq!(&decoded.encode(), &spliced);
        }
    }

    #[test]
    fn build_spec_equals_reference(
        image in "[a-z][a-z0-9/:.-]{0,20}",
        // Quotes, colons and `#` inside a command: a quote mid-scalar is
        // literal, and a comment after it is still a comment.
        commands in prop::collection::vec("[a-zA-Z.0-9\\[\"'][a-zA-Z0-9 ./_'\"#:-]{0,39}", 0..10),
        version in 0usize..5,
        resources in 0usize..3,
        garbage in TEXT,
    ) {
        let version = ["0.1", "0.05", "9.9", "abc", "[1]"][version];
        let gpus = ["", "resources:\n  gpus: 2\n  network: true\n", "resources:\n  gpus: -1\n"][resources];
        let mut yml = format!("rai:\n  version: {version}\n  image: {image}\n{gpus}commands:\n  build:\n");
        for c in &commands {
            yml.push_str(&format!("    - {c}\n"));
        }
        prop_assert_eq!(BuildSpec::parse(&yml), reference_spec(&yml));
        // Without the image line, and as arbitrary text.
        let no_image = yml.replace("  image:", "  imago:");
        prop_assert_eq!(BuildSpec::parse(&no_image), reference_spec(&no_image));
        prop_assert_eq!(BuildSpec::parse(&garbage), reference_spec(&garbage));
    }

    #[test]
    fn job_request_round_trips(req in arb_request()) {
        let encoded = req.encode();
        let decoded = JobRequest::decode(&encoded).expect("own encoding must decode");
        prop_assert_eq!(decoded, req);
    }

    #[test]
    fn job_request_decode_never_panics(
        text in TEXT,
        depth in 0usize..4000,
        flow in any::<bool>(),
    ) {
        let _ = JobRequest::decode(&text);
        let _ = JobRequest::decode(&nest(&text, depth, flow));
    }

    #[test]
    fn signing_payload_is_injective_in_team_and_key(mut req in arb_request(), other_team in "[a-zA-Z0-9 _-]{1,20}") {
        prop_assume!(other_team != req.team);
        let before = req.signing_payload();
        req.team = other_team;
        prop_assert_ne!(before, req.signing_payload());
    }

    #[test]
    fn log_frames_round_trip(frame in arb_frame()) {
        prop_assert_eq!(LogFrame::decode(&frame.encode()), frame);
    }

    #[test]
    fn encode_into_equals_encode(frame in arb_frame(), before in prop::collection::vec(arb_frame(), 0..3)) {
        // Wherever in a block a frame lands, it is accounted at its
        // `encode()` length and decodes back to itself...
        let mut block = String::new();
        for f in &before {
            f.encode_into(&mut block);
        }
        let at = block.len();
        prop_assert_eq!(frame.encode_into(&mut block), frame.encode().len());
        let line = block[at..].trim_start_matches('\n');
        prop_assert!(!line.contains('\n'), "one frame, one line: {line:?}");
        prop_assert_eq!(LogFrame::decode(line), frame);
        // ...and the line is `encode()` itself unless framing had a
        // line break to escape.
        let text_breaks = frame.encode().contains('\n');
        prop_assert_eq!(line == frame.encode(), !text_breaks);
    }

    #[test]
    fn one_frame_block_is_the_frame(frame in arb_frame()) {
        prop_assume!(!frame.encode().contains('\n'));
        let mut block = String::new();
        frame.encode_into(&mut block);
        prop_assert_eq!(&block, &frame.encode());
        prop_assert_eq!(decode_block(&block).collect::<Vec<_>>(), vec![frame]);
    }

    #[test]
    fn blocks_round_trip(frames in prop::collection::vec(arb_frame(), 0..40)) {
        let mut block = String::new();
        let bytes: usize = frames.iter().map(|f| f.encode_into(&mut block)).sum();
        prop_assert_eq!(bytes, frames.iter().map(|f| f.encode().len()).sum::<usize>());
        // `End` cuts the tail: it is delivered, nothing after it is.
        let end = frames.iter().position(|f| matches!(f, LogFrame::End { .. }));
        let delivered = &frames[..end.map_or(frames.len(), |at| at + 1)];
        prop_assert_eq!(decode_block(&block).collect::<Vec<_>>(), delivered);
        // Stdout/stderr lines go in borrowed, to the same bytes.
        let mut borrowed = String::new();
        for f in &frames {
            match f {
                LogFrame::Out(text) => push_output(&mut borrowed, false, text),
                LogFrame::Err(text) => push_output(&mut borrowed, true, text),
                other => other.encode_into(&mut borrowed),
            };
        }
        prop_assert_eq!(borrowed, block);
    }

    #[test]
    fn block_decode_never_panics(body in FRAME_TEXT, lines in prop::collection::vec(FRAME_TEXT, 0..6)) {
        let _ = decode_block(&body).count();
        // Line-structured too: every line a frame, known tags and
        // their escaped forms in front of arbitrary text.
        let tags = ["out ", "err\\ ", "sts ", "url\\ ", "end ", "end\\ ", "out\\", "\\ ", ""];
        let block: Vec<String> = lines
            .iter()
            .enumerate()
            .map(|(i, text)| format!("{}{text}", tags[(i + body.len()) % tags.len()]))
            .collect();
        for frame in decode_block(&block.join("\n")) {
            // Whatever came back re-encodes and decodes to itself.
            let mut again = String::new();
            frame.encode_into(&mut again);
            prop_assert_eq!(decode_block(&again).next(), Some(frame));
        }
    }

    #[test]
    fn edited_listing1_parses_as_the_reference_does(
        edit in 0u8..5,
        at in any::<usize>(),
        shift in prop_oneof![-4i32..=-1, 1i32..=4],
    ) {
        let text = edited_listing1(edit, at, shift);
        prop_assert_eq!(BuildSpec::parse(&text), reference_spec(&text), "{}", text);
    }

    #[test]
    fn build_spec_parse_never_panics(
        text in TEXT,
        depth in 0usize..4000,
        flow in any::<bool>(),
    ) {
        let _ = BuildSpec::parse(&text);
        let _ = BuildSpec::parse(&nest(&text, depth, flow));
    }

    #[test]
    fn build_spec_accepts_generated_valid_files(
        image in "[a-z][a-z0-9/:.-]{0,20}",
        // Commands start with a letter so YAML plain-scalar type
        // inference cannot reinterpret them (`.0` parses as a float,
        // which the spec layer keeps as the command `0.0`).
        commands in prop::collection::vec("[a-zA-Z][a-zA-Z0-9 ./_-]{0,39}", 1..10),
    ) {
        let mut yml = format!("rai:\n  version: 0.1\n  image: {image}\ncommands:\n  build:\n");
        for c in &commands {
            yml.push_str(&format!("    - {}\n", c.trim()));
        }
        // Commands that trim to empty would be rejected; skip those.
        prop_assume!(commands.iter().all(|c| !c.trim().is_empty()));
        let spec = BuildSpec::parse(&yml).expect("generated file is valid");
        prop_assert_eq!(spec.image, image);
        prop_assert_eq!(spec.build.len(), commands.len());
        for (parsed, original) in spec.build.iter().zip(&commands) {
            prop_assert_eq!(parsed.as_str(), original.trim());
        }
    }
}
