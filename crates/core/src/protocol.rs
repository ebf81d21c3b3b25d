//! The wire protocol: job requests and log-stream messages exchanged
//! over the broker (paper §V "Message Broker Operations").
//!
//! Job requests are serialized as YAML, eight top-level `key: value`
//! lines, and read back line by line with the in-repo parser's own
//! one-line entry reader (DESIGN.md §11 "Request path"). Log messages
//! are plain text with a small set of control frames; the worker
//! forwards container stdout/stderr as `out` / `err` frames and
//! finishes with the `End` frame the client waits for.
//!
//! A log message body is a **block**: one frame per line, in order
//! (DESIGN.md §11 "Output path"). The worker sends a job's whole
//! output as one block, so a job costs a handful of broker messages
//! rather than one per line. A frame whose text holds a line break is
//! written under its tag plus a backslash (`out\ a\nb`), with `\n` for
//! the break and `\\` for a backslash, so every frame stays one line;
//! any other frame is written verbatim, which makes a one-frame block
//! the same bytes as [`LogFrame::encode`].

use rai_yaml::emit::{push_int_entry, push_str_entry, read_int_entry, read_str_entry};
use std::borrow::Cow;

/// Well-known queue routes.
pub mod routes {
    /// Topic clients publish job requests to.
    pub const TASK_TOPIC: &str = "rai";
    /// Channel all workers share on the task topic.
    pub const TASK_CHANNEL: &str = "tasks";

    /// Per-job ephemeral log topic (`log_${job_id}`): `log_` and at
    /// least eight hex digits.
    pub fn log_topic(job_id: u64) -> String {
        ["log_", rai_archive::digits::hex(job_id, 8).as_str()].concat()
    }

    /// The single channel on a log topic.
    pub const LOG_CHANNEL: &str = "#ch";
}

/// Submission kind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobKind {
    /// Development run (`rai`), uses the student's build file.
    Run,
    /// Final submission (`rai submit`), enforced build file + ranking.
    Submit,
}

impl JobKind {
    /// The kind's name on the wire, in the signing payload, in the
    /// submissions row and on `rai_jobs_total`.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            JobKind::Run => "run",
            JobKind::Submit => "submit",
        }
    }

    /// The kind's name in an uploaded object's metadata, where a final
    /// submission has always been tagged `final`.
    pub(crate) fn upload_tag(self) -> &'static str {
        match self {
            JobKind::Run => "run",
            JobKind::Submit => "final",
        }
    }
}

/// A job request as published on `rai/tasks`.
#[derive(Debug, PartialEq)]
pub struct JobRequest {
    /// Client-chosen unique job id.
    pub job_id: u64,
    /// Submitting user's access key.
    pub access_key: String,
    /// HMAC signature over the canonical request.
    pub signature: String,
    /// Team name (ranking key).
    pub team: String,
    /// Where the packed project was uploaded (bucket, key).
    pub upload_bucket: String,
    /// Object key of the uploaded archive.
    pub upload_key: String,
    /// The raw `rai-build.yml` text (embedded in the job message).
    pub build_yml: String,
    /// Run vs final submission.
    pub kind: JobKind,
}

impl JobRequest {
    /// The byte string that gets signed: everything except the
    /// signature itself, one field a line.
    pub fn signing_payload(&self) -> Vec<u8> {
        let fields = [
            self.access_key.as_str(),
            &self.team,
            &self.upload_bucket,
            &self.upload_key,
            self.kind.as_str(),
            &self.build_yml,
        ];
        let job_id = rai_archive::digits::decimal(self.job_id);
        let job_id = job_id.as_str().as_bytes();
        let mut out = Vec::with_capacity(job_id.len() + fields.iter().map(|f| 1 + f.len()).sum::<usize>());
        out.extend_from_slice(job_id);
        for field in fields {
            out.push(b'\n');
            out.extend_from_slice(field.as_bytes());
        }
        out
    }

    /// Serialize for the broker: the eight fields streamed as top-level
    /// `key: value` lines — the bytes `rai_yaml::to_string` renders for
    /// the equivalent mapping (the WAL's intent ledger stores them, so
    /// byte equality is pinned by a proptest), without building it.
    pub fn encode(&self) -> String {
        // Keys, separators and the escapes of a typical build file.
        let mut out = String::with_capacity(self.build_yml.len() + 320);
        push_int_entry(&mut out, "job_id", self.job_id as i64);
        push_str_entry(&mut out, "access_key", &self.access_key);
        push_str_entry(&mut out, "signature", &self.signature);
        push_str_entry(&mut out, "team", &self.team);
        push_str_entry(&mut out, "upload_bucket", &self.upload_bucket);
        push_str_entry(&mut out, "upload_key", &self.upload_key);
        push_str_entry(&mut out, "kind", self.kind.as_str());
        push_str_entry(&mut out, "build_yml", &self.build_yml);
        out
    }

    /// Deserialize from the broker; `None` for malformed messages (the
    /// worker drops them rather than crashing).
    ///
    /// A request is read in the layout [`encode`](Self::encode) writes:
    /// its eight lines in order, each the very bytes the writer puts
    /// there, and nothing after them. Each value is read by the YAML
    /// parser's own rules, so a request reads as the whole document
    /// always read; YAML that says the same in another layout (keys
    /// reordered, repeated or extra, comment or blank lines, another
    /// quoting, indentation, continuation, flow or block forms) is
    /// malformed, and so is a message cut short before its last line
    /// break.
    pub fn decode(text: &str) -> Option<JobRequest> {
        let mut lines = split_lines(text.strip_suffix('\n')?);
        let job_id = read_int_entry(lines.next()?, "job_id")? as u64;
        let mut s = |key: &str| read_str_entry(lines.next()?, key);
        let access_key = s("access_key")?;
        let signature = s("signature")?;
        let team = s("team")?;
        let upload_bucket = s("upload_bucket")?;
        let upload_key = s("upload_key")?;
        // The two lines the writer writes for a kind, compared whole.
        let kind = match lines.next()? {
            "kind: submit" => JobKind::Submit,
            "kind: run" => JobKind::Run,
            _ => return None,
        };
        let build_yml = read_str_entry(lines.next()?, "build_yml")?;
        if lines.next().is_some() {
            return None;
        }
        Some(JobRequest {
            job_id,
            access_key,
            signature,
            team,
            upload_bucket,
            upload_key,
            build_yml,
            kind,
        })
    }
}

/// `body` split at each `\n`, as `str::split('\n')` splits it, each
/// line found by a loop over its bytes: for a request's short lines
/// that is cheaper than a `memchr` call's setup.
fn split_lines(body: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(body);
    std::iter::from_fn(move || {
        let text = rest?;
        let Some(at) = text.bytes().position(|b| b == b'\n') else {
            rest = None;
            return Some(text);
        };
        rest = Some(&text[at + 1..]);
        Some(&text[..at])
    })
}

/// Frames published on the per-job log topic.
#[derive(Debug, PartialEq)]
pub enum LogFrame {
    /// Container stdout line.
    Out(String),
    /// Container stderr line.
    Err(String),
    /// Worker status note (queue position, image pull, upload).
    Status(String),
    /// URL of the uploaded `/build` archive.
    BuildUrl(String),
    /// Terminal frame: job finished with this success flag.
    End { success: bool },
}

impl LogFrame {
    /// The frame's tag and the text after it.
    fn parts(&self) -> (&'static str, &str) {
        match self {
            LogFrame::Out(s) => ("out", s),
            LogFrame::Err(s) => ("err", s),
            LogFrame::Status(s) => ("sts", s),
            LogFrame::BuildUrl(s) => ("url", s),
            LogFrame::End { success: true } => ("end", "ok"),
            LogFrame::End { success: false } => ("end", "fail"),
        }
    }

    /// Serialize as a single message: tag, space, text. Its length is
    /// what a frame counts for in the submissions row's `log_bytes`.
    pub fn encode(&self) -> String {
        let (tag, text) = self.parts();
        format!("{tag} {text}")
    }

    /// Append this frame to `block` as its next line and return
    /// `self.encode().len()` — block framing (the separator, escapes)
    /// is not part of a frame's accounted size.
    pub fn encode_into(&self, block: &mut String) -> usize {
        let (tag, text) = self.parts();
        push_line(block, tag, text)
    }

    /// Parse a frame line; unknown prefixes decode as stdout (forward
    /// compatibility with older clients, as the paper's two-branch
    /// release flow requires). The client reads frames in place
    /// ([`FrameLine`]); this owned decoding is the tests' reference.
    #[cfg(test)]
    pub(crate) fn decode(line: &str) -> LogFrame {
        let frame = FrameLine::read(line);
        match frame.tag {
            Tag::Out => LogFrame::Out(frame.text().into_owned()),
            Tag::Err => LogFrame::Err(frame.text().into_owned()),
            Tag::Status => LogFrame::Status(frame.text().into_owned()),
            Tag::BuildUrl => LogFrame::BuildUrl(frame.text().into_owned()),
            Tag::End => LogFrame::End { success: frame.raw == "ok" },
        }
    }
}

/// What a frame line says it is.
pub(crate) enum Tag {
    Out,
    Err,
    Status,
    BuildUrl,
    End,
}

/// A frame line read where it lies: its tag and its text, still
/// escaped when `escaped` — the one reading of a frame, which the
/// client's transcript and the tests' owned decoding share.
pub(crate) struct FrameLine<'l> {
    pub(crate) tag: Tag,
    /// The text after the tag, as written.
    pub(crate) raw: &'l str,
    escaped: bool,
}

impl<'l> FrameLine<'l> {
    /// Read one line of a block; a line without a known tag is stdout,
    /// the whole line its text.
    pub(crate) fn read(line: &'l str) -> Self {
        let unknown = FrameLine { tag: Tag::Out, raw: line, escaped: false };
        // A tag is a few bytes: a loop finds its space sooner than `memchr`.
        let Some(at) = line.bytes().position(|b| b == b' ') else { return unknown };
        let (tag, raw) = (&line[..at], &line[at + 1..]);
        let (tag, escaped) = match tag.strip_suffix('\\') {
            Some(tag) => (tag, true),
            None => (tag, false),
        };
        let tag = match tag {
            "out" => Tag::Out,
            "err" => Tag::Err,
            "sts" => Tag::Status,
            "url" => Tag::BuildUrl,
            "end" if !escaped => Tag::End,
            _ => return unknown,
        };
        FrameLine { tag, raw, escaped }
    }

    /// The frame's text, its escapes undone: borrowed unless it had any.
    pub(crate) fn text(&self) -> Cow<'l, str> {
        if self.escaped {
            Cow::Owned(unescape(self.raw))
        } else {
            Cow::Borrowed(self.raw)
        }
    }
}

/// Append a container output line to `block` as the `out` (stderr:
/// `err`) frame it is, without building the [`LogFrame`]; returns the
/// frame's `encode().len()` like [`LogFrame::encode_into`].
pub fn push_output(block: &mut String, stderr: bool, text: &str) -> usize {
    push_line(block, if stderr { "err" } else { "out" }, text)
}

/// One frame line onto a block: verbatim unless `text` holds a line
/// break, which the escaped form of the tag (`tag\`) carries as `\n`.
fn push_line(block: &mut String, tag: &str, text: &str) -> usize {
    block.reserve(tag.len() + 2 + text.len());
    if !block.is_empty() {
        block.push('\n');
    }
    block.push_str(tag);
    if text.bytes().any(|b| b == b'\n') {
        block.push_str("\\ ");
        let mut rest = text;
        while let Some(at) = rest.find(['\n', '\\']) {
            block.push_str(&rest[..at]);
            block.push_str(if rest.as_bytes()[at] == b'\n' { "\\n" } else { "\\\\" });
            rest = &rest[at + 1..];
        }
        block.push_str(rest);
    } else {
        block.push(' ');
        block.push_str(text);
    }
    tag.len() + 1 + text.len()
}

/// Undo [`push_line`]'s escapes. Lenient, never fails: a backslash
/// before anything but `n` or `\` stands for itself.
fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let (c, len) = match rest.as_bytes().get(at + 1) {
            Some(b'n') => ('\n', 2),
            Some(b'\\') => ('\\', 2),
            _ => ('\\', 1),
        };
        out.push(c);
        rest = &rest[at + len..];
    }
    out.push_str(rest);
    out
}

/// The frames of a block, in order; each line is borrowed from `body`
/// and decoded in turn. `End` terminates: nothing after it is yielded.
/// An empty body holds no frame. The tests' reference reader of a block.
#[cfg(test)]
pub(crate) fn decode_block(body: &str) -> impl Iterator<Item = LogFrame> + '_ {
    let mut lines = block_lines(body);
    let mut ended = false;
    std::iter::from_fn(move || {
        let frame = LogFrame::decode(lines.next().filter(|_| !ended)?);
        ended = matches!(frame, LogFrame::End { .. });
        Some(frame)
    })
}

/// The frame lines of a block body, in order: none in an empty body.
pub(crate) fn block_lines(body: &str) -> impl Iterator<Item = &str> {
    (!body.is_empty()).then(|| split_lines(body)).into_iter().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobRequest {
        JobRequest {
            job_id: 0xDEAD,
            access_key: "BsqJuFUI2ZtK4g1aLXf-OjmML6".into(),
            signature: "ab12".into(),
            team: "gpu gophers".into(),
            upload_bucket: "rai-uploads".into(),
            upload_key: "gpu-gophers/0000dead.tar.bz2".into(),
            build_yml: crate::spec::DEFAULT_BUILD_YML.into(),
            kind: JobKind::Submit,
        }
    }

    #[test]
    fn job_request_round_trips() {
        let r = sample();
        let text = r.encode();
        let back = JobRequest::decode(&text).unwrap();
        assert_eq!(back, r);
        // The embedded multi-line build file survived.
        assert!(back.build_yml.contains("cmake /src"));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(JobRequest::decode("not yaml: [").is_none());
        assert!(JobRequest::decode("a: 1\n").is_none());
        let mut r = sample().encode();
        r = r.replace("kind: submit", "kind: explode");
        assert!(JobRequest::decode(&r).is_none());
    }

    #[test]
    fn a_request_is_read_only_in_the_layout_it_was_written() {
        let text = sample().encode();
        let lines: Vec<&str> = text.lines().collect();
        let mut reordered = lines.clone();
        reordered.swap(1, 3);
        let relaid = [
            reordered.join("\n") + "\n",
            format!("{text}job_id: 1\n"),
            format!("{text}priority: high\n"),
            format!("# a request\n{text}"),
            format!("{text}\n"),
            text.replace("team: gpu gophers", "team: gpu gophers # the team"),
            text.replace("team: gpu gophers", "team: \"gpu gophers\""),
            text.replace("kind: submit", "kind: 'submit'"),
            text.replace("job_id: 57005", "job_id: 0xDEAD"),
            text.replace("\nteam:", "\n  team:"),
            text.replace("\nteam:", "\r\nteam:"),
            text.replace("team: gpu gophers", "team: gpu\n  gophers"),
            text.replace("upload_bucket: rai-uploads", "upload_bucket: [rai-uploads]"),
        ];
        for other in &relaid {
            assert_eq!(JobRequest::decode(other), None, "{other}");
        }
        // Cut before its last line break, it is not a line the writer
        // wrote.
        assert_eq!(JobRequest::decode(text.strip_suffix('\n').unwrap()), None);
        let cut = text.strip_suffix("\"\n").unwrap();
        assert_eq!(JobRequest::decode(cut), None);
    }

    #[test]
    fn signing_payload_is_the_fields_one_a_line() {
        let r = sample();
        let expected = format!(
            "{}\n{}\n{}\n{}\n{}\nsubmit\n{}",
            r.job_id, r.access_key, r.team, r.upload_bucket, r.upload_key, r.build_yml
        );
        assert_eq!(r.signing_payload(), expected.into_bytes());
    }

    #[test]
    fn signing_payload_excludes_signature() {
        let mut r = sample();
        let p1 = r.signing_payload();
        r.signature = "different".into();
        assert_eq!(p1, r.signing_payload());
        r.team = "other".into();
        assert_ne!(p1, r.signing_payload());
    }

    #[test]
    fn log_frames_round_trip() {
        for f in [
            LogFrame::Out("Building project".into()),
            LogFrame::Err("warning: unused".into()),
            LogFrame::Status("queued behind 3 jobs".into()),
            LogFrame::BuildUrl("rai-builds/abc.tar.bz2".into()),
            LogFrame::End { success: true },
            LogFrame::End { success: false },
        ] {
            assert_eq!(LogFrame::decode(&f.encode()), f);
        }
    }

    #[test]
    fn unknown_frame_is_treated_as_output() {
        assert_eq!(
            LogFrame::decode("v2-fancy-frame payload"),
            LogFrame::Out("v2-fancy-frame payload".into())
        );
    }

    #[test]
    fn a_block_is_its_frames_one_per_line() {
        let frames = [
            LogFrame::Out("Building project".into()),
            LogFrame::Err("multi\nline \\ with\r\n\nbreaks".into()),
            LogFrame::Out("a literal \\n stays literal".into()),
            LogFrame::BuildUrl(String::new()),
            LogFrame::End { success: true },
            LogFrame::Out("after the end".into()),
        ];
        let mut block = String::new();
        let bytes: usize = frames.iter().map(|f| f.encode_into(&mut block)).sum();
        assert_eq!(
            block,
            "out Building project\n\
             err\\ multi\\nline \\\\ with\r\\n\\nbreaks\n\
             out a literal \\n stays literal\n\
             url \n\
             end ok\n\
             out after the end"
        );
        // Accounting is the frames', not the framing's.
        assert_eq!(bytes, frames.iter().map(|f| f.encode().len()).sum::<usize>());
        assert_eq!(decode_block(&block).collect::<Vec<_>>(), frames[..5]);
        assert_eq!(decode_block("").count(), 0);

        let mut borrowed = String::new();
        push_output(&mut borrowed, false, "Building project");
        push_output(&mut borrowed, true, "multi\nline \\ with\r\n\nbreaks");
        assert!(block.starts_with(&borrowed));
    }

    #[test]
    fn a_one_frame_block_is_the_message_it_always_was() {
        for f in [
            LogFrame::Status("job accepted by worker-0".into()),
            LogFrame::Out("back\\slash and \r return".into()),
            LogFrame::End { success: false },
        ] {
            let mut block = String::new();
            assert_eq!(f.encode_into(&mut block), f.encode().len());
            assert_eq!(block, f.encode());
        }
    }

    #[test]
    fn stray_escapes_decode_leniently() {
        assert_eq!(LogFrame::decode("out\\ a\\"), LogFrame::Out("a\\".into()));
        assert_eq!(LogFrame::decode("out\\ a\\tb"), LogFrame::Out("a\\tb".into()));
        // Only text frames have an escaped form.
        assert_eq!(LogFrame::decode("end\\ ok"), LogFrame::Out("end\\ ok".into()));
        assert_eq!(LogFrame::decode("out\\"), LogFrame::Out("out\\".into()));
    }

    #[test]
    fn log_topic_naming() {
        assert_eq!(routes::log_topic(0xBEEF), "log_0000beef");
    }
}
