//! Fixture: lock-discipline, error-swallow and write-site-coverage
//! violations on the session surface.

pub enum DbError {
    Boom,
}

pub type DbResult<T> = Result<T, DbError>;

pub struct SimFs;

impl SimFs {
    pub fn write_block(&mut self, _blk: u64) -> DbResult<()> {
        Ok(())
    }

    pub fn append(&mut self, _bytes: u32) -> DbResult<()> {
        Ok(())
    }
}

pub struct LockTable;

impl LockTable {
    pub fn lock_row(&mut self, _rid: u64) -> DbResult<()> {
        Ok(())
    }
}

pub struct DbServer {
    locks: LockTable,
    fs: SimFs,
}

impl DbServer {
    fn lock_for_dml(&mut self, rid: u64) -> DbResult<()> {
        self.locks.lock_row(rid)
    }

    fn append_record(&mut self) -> DbResult<()> {
        self.flush_redo()
    }

    fn flush_redo(&mut self) -> DbResult<()> {
        self.fs.append(12)
    }

    fn stash_block(&mut self) -> DbResult<()> {
        self.fs.write_block(7)
    }

    pub fn insert(&mut self, rid: u64) -> DbResult<()> {
        self.locks.lock_row(rid)?;
        self.append_record()?;
        self.lock_for_dml(rid)?;
        self.stash_block()?;
        let _ = self.append_record();
        self.append_record().ok();
        self.append_record()
    }

    fn probe(_server: &mut DbServer) -> DbResult<()> {
        Ok(())
    }

    // `Self::probe` resolves through the impl type, so discarding its
    // result is caught; `return f();` hands the result on.
    pub fn resync(&mut self) -> DbResult<()> {
        let _ = Self::probe(self);
        return Self::probe(self);
    }
}
