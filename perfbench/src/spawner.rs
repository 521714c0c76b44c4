//! A small helper process that runs the `mhd` commands of a run.
//!
//! A child's `ru_maxrss` starts at its parent's peak RSS (the child shares
//! or copies the parent's pages until it execs). The driver holds the
//! whole corpus in memory, so its children's peaks would read as its own.
//! The helper is started before the corpus exists and stays small. It
//! spawns each command, times it from spawn to exit, and reports the
//! largest peak RSS of any child it has waited for.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

use crate::sys;

/// One finished command.
pub(crate) struct Ran {
    /// Exit code; `None` when killed by a signal or not spawned.
    pub(crate) code: Option<i32>,
    pub(crate) secs: f64,
    pub(crate) stdout: String,
    pub(crate) stderr: String,
    /// Largest peak RSS of any command run so far, in bytes.
    pub(crate) peak_rss: u64,
}

/// The driver's handle on the helper.
pub(crate) struct Spawner {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
}

impl Spawner {
    /// Starts the helper: this executable with `--spawner`.
    pub(crate) fn start() -> Result<Spawner, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start spawner: {e}"))?;
        let to = child.stdin.take();
        let from = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Spawner { child, to, from })
    }

    /// Runs `program args…` in the helper and waits for it.
    pub(crate) fn run(&mut self, program: &Path, args: &[&str]) -> Result<Ran, String> {
        let lost = |e: std::io::Error| format!("spawner: {e}");
        let mut request = program.to_string_lossy().into_owned();
        for arg in args {
            if arg.contains(['\t', '\n']) {
                return Err(format!("argument {arg:?} contains a tab or newline"));
            }
            request.push('\t');
            request.push_str(arg);
        }
        request.push('\n');
        let to = self.to.as_mut().expect("spawner input is open until drop");
        to.write_all(request.as_bytes()).and_then(|()| to.flush()).map_err(lost)?;

        let mut header = String::new();
        self.from.read_line(&mut header).map_err(lost)?;
        let fields: Vec<&str> = header.trim_end().split('\t').collect();
        let [code, secs, peak, out_len, err_len] = fields[..] else {
            return Err(format!("spawner: bad reply {header:?}"));
        };
        let bad = |v: &str| format!("spawner: bad field {v:?} in {header:?}");
        let len = |v: &str| v.parse::<usize>().map_err(|_| bad(v));
        let mut body = |len: usize| -> Result<String, String> {
            let mut buf = vec![0u8; len];
            self.from.read_exact(&mut buf).map_err(lost)?;
            Ok(String::from_utf8_lossy(&buf).into_owned())
        };
        let stdout = body(len(out_len)?)?;
        let stderr = body(len(err_len)?)?;
        Ok(Ran {
            code: code.parse().ok(),
            secs: secs.parse().map_err(|_| bad(secs))?,
            stdout,
            stderr,
            peak_rss: peak.parse().map_err(|_| bad(peak))?,
        })
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // End of input stops the helper; wait so it never outlives us.
        drop(self.to.take());
        let _ = self.child.wait();
    }
}

/// The helper's main loop: one command per input line, tab-separated.
pub(crate) fn serve() -> ExitCode {
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let mut parts = line.split('\t');
        let program = parts.next().unwrap_or_default();
        let t0 = Instant::now();
        let output = Command::new(program).args(parts).stdin(Stdio::null()).output();
        let secs = t0.elapsed().as_secs_f64();
        let (code, out, err) = match output {
            Ok(o) => {
                (o.status.code().map_or("signal".into(), |c| c.to_string()), o.stdout, o.stderr)
            }
            Err(e) => ("spawn".into(), Vec::new(), format!("spawn {program}: {e}").into_bytes()),
        };
        let header =
            format!("{code}\t{secs}\t{}\t{}\t{}\n", sys::children_peak_rss(), out.len(), err.len());
        let sent = stdout
            .write_all(header.as_bytes())
            .and_then(|()| stdout.write_all(&out))
            .and_then(|()| stdout.write_all(&err))
            .and_then(|()| stdout.flush());
        if sent.is_err() {
            break;
        }
    }
    ExitCode::SUCCESS
}
